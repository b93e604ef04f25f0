#include "hwsim/pmu.hpp"

#include <gtest/gtest.h>

#include <array>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hmd::hwsim {
namespace {

TEST(Pmu, GroundTruthAccumulates) {
  Pmu pmu;
  pmu.add(HwEvent::kInstructions, 5);
  pmu.add(HwEvent::kInstructions);
  EXPECT_EQ(pmu.true_count(HwEvent::kInstructions), 6u);
  EXPECT_EQ(pmu.true_count(HwEvent::kCacheMisses), 0u);
}

TEST(Pmu, ProgrammedRegisterCounts) {
  Pmu pmu;
  pmu.program(0, HwEvent::kBranchMisses);
  pmu.add(HwEvent::kBranchMisses, 3);
  EXPECT_EQ(pmu.read(0).value, 3u);
}

TEST(Pmu, UnprogrammedEventNotCaptured) {
  Pmu pmu;
  pmu.program(0, HwEvent::kBranchMisses);
  pmu.add(HwEvent::kCacheMisses, 7);
  EXPECT_EQ(pmu.read(0).value, 0u);
  EXPECT_EQ(pmu.true_count(HwEvent::kCacheMisses), 7u);
}

TEST(Pmu, StoppedRegisterFreezes) {
  Pmu pmu;
  pmu.program(0, HwEvent::kInstructions);
  pmu.add(HwEvent::kInstructions, 2);
  pmu.stop(0);
  pmu.add(HwEvent::kInstructions, 10);
  EXPECT_EQ(pmu.read(0).value, 2u);
  EXPECT_EQ(pmu.true_count(HwEvent::kInstructions), 12u);
}

TEST(Pmu, ReprogramClearsValue) {
  Pmu pmu;
  pmu.program(0, HwEvent::kInstructions);
  pmu.add(HwEvent::kInstructions, 9);
  pmu.program(0, HwEvent::kInstructions);
  EXPECT_EQ(pmu.read(0).value, 0u);
}

TEST(Pmu, TimeAccruesOnlyWhileActive) {
  Pmu pmu;
  pmu.program(0, HwEvent::kCycles);
  pmu.advance_time(100);
  pmu.stop(0);
  pmu.advance_time(100);
  EXPECT_EQ(pmu.read(0).time_running_ns, 100u);
}

TEST(Pmu, MultipleRegistersSameEvent) {
  Pmu pmu;
  pmu.program(0, HwEvent::kCycles);
  pmu.program(1, HwEvent::kCycles);
  pmu.add(HwEvent::kCycles, 4);
  EXPECT_EQ(pmu.read(0).value, 4u);
  EXPECT_EQ(pmu.read(1).value, 4u);
}

TEST(Pmu, EightCountersAvailable) {
  Pmu pmu;
  for (std::size_t r = 0; r < Pmu::kNumCounters; ++r)
    pmu.program(r, static_cast<HwEvent>(r));
  EXPECT_EQ(Pmu::kNumCounters, 8u);  // Haswell i5-4590
  for (std::size_t r = 0; r < Pmu::kNumCounters; ++r)
    EXPECT_TRUE(pmu.is_active(r));
}

TEST(Pmu, SlotOutOfRangeThrows) {
  Pmu pmu;
  EXPECT_THROW(pmu.program(8, HwEvent::kCycles), hmd::PreconditionError);
  EXPECT_THROW((void)pmu.read(8), hmd::PreconditionError);
  EXPECT_THROW(pmu.stop(8), hmd::PreconditionError);
}

TEST(Pmu, ProgrammedEventQuery) {
  Pmu pmu;
  EXPECT_FALSE(pmu.programmed_event(0).has_value());
  pmu.program(0, HwEvent::kLlcLoads);
  EXPECT_EQ(pmu.programmed_event(0), HwEvent::kLlcLoads);
}

TEST(Pmu, ResetClearsEverything) {
  Pmu pmu;
  pmu.program(0, HwEvent::kInstructions);
  pmu.add(HwEvent::kInstructions, 5);
  pmu.advance_time(10);
  pmu.reset();
  EXPECT_EQ(pmu.true_count(HwEvent::kInstructions), 0u);
  EXPECT_FALSE(pmu.is_active(0));
  EXPECT_EQ(pmu.read(0).value, 0u);
}

TEST(PmuDifferential, MatchesRegisterScanReference) {
  // Reference: add() scans every register for an active one counting the
  // event. A seeded mix of program/stop/add/reset must leave the Pmu's
  // registers and ground truth equal to it after every step.
  struct RefRegister {
    HwEvent event = HwEvent::kCount;
    std::uint64_t value = 0;
    bool active = false;
  };
  std::array<RefRegister, Pmu::kNumCounters> ref{};
  std::array<std::uint64_t, kNumEvents> ref_truth{};
  Pmu pmu;
  Rng rng(2017);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.uniform_index(100);
    const auto slot =
        static_cast<std::size_t>(rng.uniform_index(Pmu::kNumCounters));
    // A small event range so that registers often share an event.
    const auto event = static_cast<HwEvent>(rng.uniform_index(6));
    if (op < 15) {
      pmu.program(slot, event);
      ref[slot] = {.event = event, .value = 0, .active = true};
    } else if (op < 25) {
      pmu.stop(slot);
      ref[slot].active = false;
    } else if (op < 26) {
      pmu.reset();
      ref = {};
      ref_truth = {};
    } else {
      const std::uint64_t n = 1 + rng.uniform_index(5);
      pmu.add(event, n);
      ref_truth[static_cast<std::size_t>(event)] += n;
      for (RefRegister& r : ref)
        if (r.active && r.event == event) r.value += n;
    }
    for (std::size_t r = 0; r < Pmu::kNumCounters; ++r) {
      ASSERT_EQ(pmu.read(r).value, ref[r].value) << "step " << step;
      ASSERT_EQ(pmu.is_active(r), ref[r].active) << "step " << step;
    }
    for (std::size_t e = 0; e < kNumEvents; ++e)
      ASSERT_EQ(pmu.true_count(static_cast<HwEvent>(e)), ref_truth[e])
          << "step " << step;
  }
}

}  // namespace
}  // namespace hmd::hwsim
