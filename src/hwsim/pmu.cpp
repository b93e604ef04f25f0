#include "hwsim/pmu.hpp"

#include "util/error.hpp"

namespace hmd::hwsim {

void Pmu::advance_time(std::uint64_t ns) {
  for (auto& reg : registers_)
    if (reg.active) reg.time_running_ns += ns;
}

void Pmu::program(std::size_t slot, HwEvent e) {
  HMD_REQUIRE(slot < kNumCounters, "Pmu::program: slot out of range");
  HMD_REQUIRE(e < HwEvent::kCount, "Pmu::program: invalid event");
  stop(slot);
  registers_[slot] = {.event = e, .value = 0, .time_running_ns = 0,
                      .active = true};
  counting_[static_cast<std::size_t>(e)] |=
      static_cast<RegisterMask>(1u << slot);
}

void Pmu::stop(std::size_t slot) {
  HMD_REQUIRE(slot < kNumCounters, "Pmu::stop: slot out of range");
  Register& reg = registers_[slot];
  if (reg.active)
    counting_[static_cast<std::size_t>(reg.event)] &=
        static_cast<RegisterMask>(~(1u << slot));
  reg.active = false;
}

bool Pmu::is_active(std::size_t slot) const {
  HMD_REQUIRE(slot < kNumCounters, "Pmu::is_active: slot out of range");
  return registers_[slot].active;
}

std::optional<HwEvent> Pmu::programmed_event(std::size_t slot) const {
  HMD_REQUIRE(slot < kNumCounters, "Pmu::programmed_event: slot out of range");
  const Register& reg = registers_[slot];
  if (reg.event == HwEvent::kCount) return std::nullopt;
  return reg.event;
}

CounterReading Pmu::read(std::size_t slot) const {
  HMD_REQUIRE(slot < kNumCounters, "Pmu::read: slot out of range");
  const Register& reg = registers_[slot];
  return {.value = reg.value, .time_running_ns = reg.time_running_ns};
}

std::uint64_t Pmu::true_count(HwEvent e) const {
  const auto idx = static_cast<std::size_t>(e);
  HMD_REQUIRE(idx < kNumEvents, "Pmu::true_count: invalid event");
  return true_counts_[idx];
}

void Pmu::reset() {
  true_counts_.fill(0);
  registers_.fill({});
  counting_.fill(0);
}

}  // namespace hmd::hwsim
