#include "hwsim/core.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/sandbox.hpp"

namespace hmd::hwsim {
namespace {

MicroOp alu(std::uint64_t pc) { return {.kind = OpKind::kAlu, .pc = pc}; }
MicroOp load(std::uint64_t pc, std::uint64_t addr) {
  return {.kind = OpKind::kLoad, .pc = pc, .addr = addr};
}
MicroOp store(std::uint64_t pc, std::uint64_t addr) {
  return {.kind = OpKind::kStore, .pc = pc, .addr = addr};
}
MicroOp branch(std::uint64_t pc, std::uint64_t target, bool taken,
               bool conditional = true) {
  return {.kind = OpKind::kBranch, .pc = pc, .target = target,
          .conditional = conditional, .taken = taken};
}

TEST(Core, CountsInstructions) {
  Core core;
  for (int i = 0; i < 10; ++i) core.execute(alu(0x400000 + 4u * i));
  EXPECT_EQ(core.instructions(), 10u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kInstructions), 10u);
}

TEST(Core, CountsLoadsAndStores) {
  Core core;
  core.execute(load(0x400000, 0x1000));
  core.execute(store(0x400004, 0x2000));
  EXPECT_EQ(core.pmu().true_count(HwEvent::kL1DcacheLoads), 1u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kL1DcacheStores), 1u);
}

TEST(Core, ColdLoadCountsWholeMissChain) {
  Core core;
  core.execute(load(0x400000, 0x123450));
  const Pmu& pmu = core.pmu();
  EXPECT_EQ(pmu.true_count(HwEvent::kL1DcacheLoadMisses), 1u);
  EXPECT_EQ(pmu.true_count(HwEvent::kLlcLoadMisses), 1u);
  EXPECT_EQ(pmu.true_count(HwEvent::kNodeLoads), 2u);  // fetch fill + data
}

TEST(Core, BranchEventsCounted) {
  Core core;
  core.execute(branch(0x400000, 0x400100, true));
  EXPECT_EQ(core.pmu().true_count(HwEvent::kBranchInstructions), 1u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kBranchLoads), 1u);
}

TEST(Core, UnconditionalBranchIsNotABranchLoad) {
  Core core;
  core.execute(branch(0x400000, 0x400100, true, /*conditional=*/false));
  EXPECT_EQ(core.pmu().true_count(HwEvent::kBranchInstructions), 1u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kBranchLoads), 0u);
}

TEST(Core, PredictableLoopHasFewBranchMisses) {
  Core core;
  for (int i = 0; i < 2000; ++i)
    core.execute(branch(0x400000, 0x400000, true));
  EXPECT_LT(core.pmu().true_count(HwEvent::kBranchMisses), 20u);
}

TEST(Core, RandomBranchesMissOften) {
  Core core;
  hmd::Rng rng(11);
  for (int i = 0; i < 2000; ++i)
    core.execute(branch(0x400000, 0x400100, rng.bernoulli(0.5)));
  EXPECT_GT(core.pmu().true_count(HwEvent::kBranchMisses), 500u);
}

TEST(Core, CyclesAdvance) {
  Core core;
  core.execute(alu(0x400000));
  const std::uint64_t after_one = core.cycles();
  EXPECT_GT(after_one, 0u);
  core.execute(load(0x400004, 0x99999000));  // cold miss: big charge
  EXPECT_GT(core.cycles() - after_one, 100u);
}

TEST(Core, BusCyclesTrackCycleRatio) {
  Core core;
  for (int i = 0; i < 5000; ++i) core.execute(alu(0x400000 + 4u * (i % 16)));
  const auto cycles = core.pmu().true_count(HwEvent::kCycles);
  const auto bus = core.pmu().true_count(HwEvent::kBusCycles);
  EXPECT_NEAR(static_cast<double>(bus),
              static_cast<double>(cycles) / 33.0, 2.0);
}

TEST(Core, SequentialFetchTouchesICacheOncePerLine) {
  Core core;
  // 32 sequential ALU ops = 128 bytes = 2 fetch lines.
  for (int i = 0; i < 32; ++i) core.execute(alu(0x400000 + 4u * i));
  EXPECT_EQ(core.memory().l1i().accesses(), 2u);
}

TEST(Core, TakenBranchForcesRefetch) {
  Core core;
  core.execute(alu(0x400000));
  core.execute(branch(0x400004, 0x400000, true));
  core.execute(alu(0x400000));  // same line as first fetch, but refetched
  EXPECT_GE(core.memory().l1i().accesses(), 2u);
}

TEST(Core, IpcIsPositiveAndBounded) {
  Core core;
  for (int i = 0; i < 1000; ++i) core.execute(alu(0x400000 + 4u * (i % 8)));
  EXPECT_GT(core.ipc(), 0.1);
  EXPECT_LE(core.ipc(), 1.0);
}

TEST(Core, ElapsedTimeMatchesFrequency) {
  Core core(CoreConfig{.frequency_ghz = 2.0});
  for (int i = 0; i < 100; ++i) core.execute(alu(0x400000));
  EXPECT_NEAR(core.elapsed_ns(),
              static_cast<double>(core.cycles()) / 2.0, 1e-9);
}

TEST(Core, SyncPmuTimeAdvancesRegisters) {
  Core core;
  core.pmu().program(0, HwEvent::kInstructions);
  for (int i = 0; i < 100; ++i) core.execute(alu(0x400000 + 4u * i));
  core.sync_pmu_time();
  EXPECT_GT(core.pmu().read(0).time_running_ns, 0u);
}

TEST(Core, ResetRestoresColdState) {
  Core core;
  core.execute(load(0x400000, 0x5000));
  core.reset();
  EXPECT_EQ(core.cycles(), 0u);
  EXPECT_EQ(core.instructions(), 0u);
  EXPECT_EQ(core.pmu().true_count(HwEvent::kInstructions), 0u);
  // Caches cold again.
  core.execute(load(0x400000, 0x5000));
  EXPECT_EQ(core.pmu().true_count(HwEvent::kL1DcacheLoadMisses), 1u);
}

TEST(Core, StoreStreamProducesNodeStores) {
  Core core(CoreConfig{}, MemoryHierarchy::miniature());
  std::uint64_t addr = 0;
  for (int i = 0; i < 40000; ++i) {
    core.execute(store(0x400000, addr));
    addr += 64;
  }
  EXPECT_GT(core.pmu().true_count(HwEvent::kNodeStores), 100u);
}

// Golden ground-truth counts for every event after a fixed seeded Sandbox
// op stream. They pin the simulator bit for bit: a change to the cache,
// TLB, predictor, PMU or core timing code that moves any counter fails
// here, and the failure message lists each new value.
using EventCounts = std::array<std::uint64_t, kNumEvents>;

EventCounts run_sandbox(Core& core, workload::AppClass label,
                        std::uint64_t seed, std::size_t ops) {
  workload::SampleRecord record;
  record.label = label;
  record.seed = seed;
  workload::Sandbox sandbox(record);
  for (std::size_t i = 0; i < ops; ++i) core.execute(sandbox.next());
  EventCounts counts{};
  for (std::size_t e = 0; e < kNumEvents; ++e)
    counts[e] = core.pmu().true_count(static_cast<HwEvent>(e));
  return counts;
}

void expect_counts(const EventCounts& got, const EventCounts& want) {
  for (std::size_t e = 0; e < kNumEvents; ++e)
    EXPECT_EQ(got[e], want[e]) << event_name(static_cast<HwEvent>(e));
}

TEST(Core, MiniatureSandboxStreamMatchesGoldenCounts) {
  // The collection pipeline's machine: miniature caches, 64/48-entry TLBs.
  Core core(CoreConfig{}, MemoryHierarchy::miniature());
  const EventCounts counts =
      run_sandbox(core, workload::AppClass::kVirus, 20170605, 60000);
  expect_counts(counts, {60000, 10383, 2902, 8355, 23819, 15794, 20100, 4923,
                          18881, 2631, 17061, 11289, 40, 84647, 15794, 5149,
                          2793373, 4629, 1812, 4127, 2553, 379635});
  EXPECT_EQ(core.cycles(), counts[static_cast<std::size_t>(HwEvent::kCycles)]);
}

TEST(Core, HaswellPrefetchingSandboxStreamMatchesGoldenCounts) {
  // Full-size hierarchy, 128/64-entry TLBs, prefetch fills on the load path.
  Core core;
  core.memory().enable_prefetcher();
  const EventCounts counts =
      run_sandbox(core, workload::AppClass::kBenign, 4590, 60000);
  expect_counts(counts, {60000, 10074, 2318, 8567, 2755, 2753, 13084, 5701,
                          4690, 1622, 1115, 1114, 41, 16837, 2753, 0, 555640,
                          2156, 161, 479, 479, 217220});
}

TEST(Core, RejectsBadConfig) {
  EXPECT_THROW(Core(CoreConfig{.frequency_ghz = 0.0}),
               hmd::PreconditionError);
  EXPECT_THROW(Core(CoreConfig{.bus_ratio = 0}), hmd::PreconditionError);
  EXPECT_THROW(Core(CoreConfig{.fetch_line_bytes = 8}),
               hmd::PreconditionError);
  EXPECT_THROW(Core(CoreConfig{.fetch_line_bytes = 48}),
               hmd::PreconditionError);
  try {
    Core(CoreConfig{.fetch_line_bytes = 96});
    ADD_FAILURE() << "a 96-byte fetch line was accepted";
  } catch (const hmd::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("CoreConfig::fetch_line_bytes"),
              std::string::npos);
  }
  EXPECT_NO_THROW(Core(CoreConfig{.fetch_line_bytes = 32}));
}

}  // namespace
}  // namespace hmd::hwsim
