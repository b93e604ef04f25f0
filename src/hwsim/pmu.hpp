// Performance Monitoring Unit model.
//
// Mirrors the Haswell PMU as the thesis uses it: a small file of
// programmable counter registers (8 on the i5-4590) onto which a larger set
// of architectural events must be multiplexed. The Pmu additionally keeps
// free-running "ground truth" counts for every event, which the tests use to
// quantify multiplexing error and which an idealized collector can read
// directly.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "hwsim/events.hpp"
#include "util/error.hpp"

namespace hmd::hwsim {

/// Snapshot returned when reading a programmable counter: the raw count plus
/// the time the event was actually scheduled on the register, so collectors
/// can scale multiplexed counts the way perf(1) does.
struct CounterReading {
  std::uint64_t value = 0;
  std::uint64_t time_running_ns = 0;  ///< time this event held the register
};

/// The PMU: ground-truth event accumulation plus a programmable register
/// file with perf-style time accounting.
class Pmu {
 public:
  /// Number of general-purpose programmable counters (Haswell: 8 with
  /// hyper-threading off, as on the i5-4590).
  static constexpr std::size_t kNumCounters = 8;

  /// Record `n` occurrences of `e`: updates ground truth and any active
  /// register currently programmed with `e`.
  void add(HwEvent e, std::uint64_t n = 1);

  /// Advance wall-clock time; accrues time_running for active registers.
  void advance_time(std::uint64_t ns);

  /// Program register `slot` to count `e`, clearing its value and time.
  void program(std::size_t slot, HwEvent e);
  /// Stop counting on `slot`; the value/time remain readable.
  void stop(std::size_t slot);
  /// True if `slot` currently has an event programmed and counting.
  bool is_active(std::size_t slot) const;
  /// Event programmed on `slot`, if any.
  std::optional<HwEvent> programmed_event(std::size_t slot) const;

  /// Read a programmable counter.
  CounterReading read(std::size_t slot) const;

  /// Ground-truth count of `e` since the last reset (free-running).
  std::uint64_t true_count(HwEvent e) const;

  /// Clear everything: ground truth, registers, time.
  void reset();

 private:
  struct Register {
    HwEvent event = HwEvent::kCount;
    std::uint64_t value = 0;
    std::uint64_t time_running_ns = 0;
    bool active = false;
  };

  using RegisterMask = std::uint8_t;  ///< one bit per register
  static_assert(kNumCounters <= 8 * sizeof(RegisterMask));

  std::array<std::uint64_t, kNumEvents> true_counts_{};
  std::array<Register, kNumCounters> registers_{};
  /// Per event, the registers that are active and counting it, so add()
  /// touches only those.
  std::array<RegisterMask, kNumEvents> counting_{};
};

// Inline: the core calls add() several times per retired op.
inline void Pmu::add(HwEvent e, std::uint64_t n) {
  const auto idx = static_cast<std::size_t>(e);
  HMD_REQUIRE(idx < kNumEvents, "Pmu::add: invalid event");
  true_counts_[idx] += n;
  for (unsigned mask = counting_[idx]; mask != 0; mask &= mask - 1)
    registers_[static_cast<std::size_t>(std::countr_zero(mask))].value += n;
}

}  // namespace hmd::hwsim
