#include "hwsim/core.hpp"

#include <bit>

#include "util/error.hpp"

namespace hmd::hwsim {

Core::Core(CoreConfig config) : Core(config, MemoryHierarchy{}) {}

Core::Core(CoreConfig config, MemoryHierarchy memory)
    : config_(config), memory_(std::move(memory)) {
  HMD_REQUIRE(config_.frequency_ghz > 0.0,
              "CoreConfig::frequency_ghz must be positive");
  HMD_REQUIRE(config_.bus_ratio > 0, "CoreConfig::bus_ratio must be positive");
  HMD_REQUIRE(config_.fetch_line_bytes >= 16,
              "CoreConfig::fetch_line_bytes must be at least 16");
  HMD_REQUIRE(std::has_single_bit(config_.fetch_line_bytes),
              "CoreConfig::fetch_line_bytes must be a power of two");
  fetch_line_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(config_.fetch_line_bytes));
}

void Core::charge_cycles(std::uint64_t cycles) {
  cycles_ += cycles;
  pmu_.add(HwEvent::kCycles, cycles);
  bus_cycle_remainder_ += cycles;
  if (bus_cycle_remainder_ >= config_.bus_ratio) {
    pmu_.add(HwEvent::kBusCycles, bus_cycle_remainder_ / config_.bus_ratio);
    bus_cycle_remainder_ %= config_.bus_ratio;
  }
}

void Core::account_memory_outcome(const AccessOutcome& out,
                                  MemAccessKind kind) {
  if (out.llc_accessed) {
    pmu_.add(HwEvent::kCacheReferences);
    // LLC-loads / LLC-stores are data-side events in perf's mapping;
    // instruction fetches contribute to cache-references/misses and DRAM
    // (node) traffic only.
    if (kind == MemAccessKind::kDataLoad)
      pmu_.add(HwEvent::kLlcLoads);
    else if (kind == MemAccessKind::kDataStore)
      pmu_.add(HwEvent::kLlcStores);
    if (out.llc_miss) {
      pmu_.add(HwEvent::kCacheMisses);
      pmu_.add(HwEvent::kNodeLoads);  // demand fill (or write-allocate) read
      if (kind == MemAccessKind::kDataLoad)
        pmu_.add(HwEvent::kLlcLoadMisses);
      else if (kind == MemAccessKind::kDataStore)
        pmu_.add(HwEvent::kLlcStoreMisses);
    }
  }
  if (out.node_stores > 0) pmu_.add(HwEvent::kNodeStores, out.node_stores);
  if (out.prefetch_fills > 0)
    pmu_.add(HwEvent::kNodeLoads, out.prefetch_fills);
}

void Core::execute(const MicroOp& op) {
  ++instructions_;
  pmu_.add(HwEvent::kInstructions);

  // Fetch: one L1I access per new fetch line; taken branches refetch.
  const std::uint64_t line = op.pc >> fetch_line_shift_;
  if (line != last_fetch_line_) {
    last_fetch_line_ = line;
    const AccessOutcome fetch = memory_.fetch(op.pc);
    if (fetch.l1_miss) {
      pmu_.add(HwEvent::kL1IcacheLoadMisses);
      pmu_.add(HwEvent::kStalledCyclesFrontend, fetch.latency_cycles);
    }
    if (fetch.tlb_miss) pmu_.add(HwEvent::kITlbLoadMisses);
    account_memory_outcome(fetch, MemAccessKind::kInstructionFetch);
    charge_cycles(fetch.l1_miss ? fetch.latency_cycles : 0);
  }

  switch (op.kind) {
    case OpKind::kAlu:
      charge_cycles(1);
      break;

    case OpKind::kLoad: {
      pmu_.add(HwEvent::kL1DcacheLoads);
      const AccessOutcome out = memory_.load(op.addr, op.pc);
      if (out.l1_miss) pmu_.add(HwEvent::kL1DcacheLoadMisses);
      if (out.tlb_miss) pmu_.add(HwEvent::kDTlbLoadMisses);
      account_memory_outcome(out, MemAccessKind::kDataLoad);
      charge_cycles(out.latency_cycles);
      break;
    }

    case OpKind::kStore: {
      pmu_.add(HwEvent::kL1DcacheStores);
      const AccessOutcome out = memory_.store(op.addr);
      if (out.l1_miss) pmu_.add(HwEvent::kL1DcacheStoreMisses);
      account_memory_outcome(out, MemAccessKind::kDataStore);
      // Stores retire without waiting for the hierarchy (store buffer);
      // charge only the L1 cycle.
      charge_cycles(1);
      break;
    }

    case OpKind::kBranch: {
      pmu_.add(HwEvent::kBranchInstructions);
      bool correct = true;
      if (op.conditional) {
        pmu_.add(HwEvent::kBranchLoads);
        correct = predictor_.predict_and_update(op.pc, op.taken, op.target);
      } else {
        // Unconditional: only the BTB target matters; model as an
        // always-taken branch through the predictor's BTB path.
        correct = predictor_.predict_and_update(op.pc, /*taken=*/true,
                                                op.target);
      }
      if (!correct) {
        pmu_.add(HwEvent::kBranchMisses);
        charge_cycles(config_.branch_miss_penalty);
      } else {
        charge_cycles(1);
      }
      if (op.taken) last_fetch_line_ = ~std::uint64_t{0};  // refetch target
      break;
    }
  }
}

void Core::execute(std::span<const MicroOp> ops) {
  for (const MicroOp& op : ops) execute(op);
}

void Core::sync_pmu_time() {
  const std::uint64_t delta = cycles_ - last_synced_cycles_;
  last_synced_cycles_ = cycles_;
  const double ns = static_cast<double>(delta) / config_.frequency_ghz;
  pmu_.advance_time(static_cast<std::uint64_t>(ns));
}

double Core::ipc() const {
  return cycles_ == 0 ? 0.0
                      : static_cast<double>(instructions_) /
                            static_cast<double>(cycles_);
}

double Core::elapsed_ns() const {
  return static_cast<double>(cycles_) / config_.frequency_ghz;
}

void Core::reset() {
  memory_.flush();
  predictor_.reset();
  pmu_.reset();
  cycles_ = 0;
  instructions_ = 0;
  last_synced_cycles_ = 0;
  last_fetch_line_ = ~std::uint64_t{0};
  bus_cycle_remainder_ = 0;
}

}  // namespace hmd::hwsim
