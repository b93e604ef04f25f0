// Component costs of the simulated core that HPC collection runs on.
//
// Every collected window is a run of seeded ops through hwsim::Core, so the
// simulator's per-op cost bounds how fast a dataset can be (re)collected.
// This bench replays one pre-generated seeded op stream (40k Sandbox ops per
// application class, on the miniature collection hierarchy) through each
// component on its own:
//
//   Sandbox::next   generating the ops
//   Tlb::access     the dTLB (48 entries) over the data addresses
//   Cache::access   the miniature L1D (LRU) over the loads and stores
//   Pmu::add        a seeded event stream with 8 registers programmed
//   Core::execute   the whole core: fetch, TLBs, caches, predictor, PMU
//
// Each component prints a [bench] line with its ns per op and an FNV-1a
// fingerprint of what the replay produced (hit/miss/writeback outcomes,
// counter values). The fingerprints are deterministic: a faster component
// must print the same ones.
//
//   ./bench/bench_hwsim                              # full timing
//   ./bench/bench_hwsim --benchmark_min_time=0.05    # quick smoke
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hwsim/cache.hpp"
#include "hwsim/core.hpp"
#include "hwsim/pmu.hpp"
#include "hwsim/tlb.hpp"
#include "util/rng.hpp"
#include "workload/sandbox.hpp"

namespace {

using namespace hmd;

constexpr std::size_t kOpsPerClass = 40000;
constexpr std::size_t kPmuEvents = 240000;

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

std::vector<hwsim::MicroOp> generate_ops() {
  std::vector<hwsim::MicroOp> ops;
  ops.reserve(kOpsPerClass * workload::kNumAppClasses);
  for (std::size_t c = 0; c < workload::kNumAppClasses; ++c) {
    workload::SampleRecord record;
    record.label = static_cast<workload::AppClass>(c);
    record.seed = 1000 + c;
    workload::Sandbox sandbox(record);
    for (std::size_t i = 0; i < kOpsPerClass; ++i)
      ops.push_back(sandbox.next());
  }
  return ops;
}

struct DataAccess {
  std::uint64_t addr;
  bool is_store;
};

std::vector<DataAccess> data_accesses(const std::vector<hwsim::MicroOp>& ops) {
  std::vector<DataAccess> out;
  for (const hwsim::MicroOp& op : ops)
    if (op.kind == hwsim::OpKind::kLoad || op.kind == hwsim::OpKind::kStore)
      out.push_back({op.addr, op.kind == hwsim::OpKind::kStore});
  return out;
}

struct PmuEvent {
  hwsim::HwEvent event;
  std::uint64_t n;
};

std::vector<PmuEvent> pmu_events() {
  Rng rng(14);
  std::vector<PmuEvent> out(kPmuEvents);
  for (PmuEvent& e : out)
    e = {static_cast<hwsim::HwEvent>(rng.uniform_index(hwsim::kNumEvents)),
         1 + rng.uniform_index(4)};
  return out;
}

// One replay per component. Each builds its component cold, so every
// iteration does the same work and returns the same fingerprint.

std::uint64_t replay_sandbox() {
  Fnv f;
  for (const hwsim::MicroOp& op : generate_ops()) {
    f.mix(op.pc);
    f.mix(op.addr);
    f.mix(op.target);
    f.mix(static_cast<std::uint64_t>(op.kind) | (op.conditional ? 4u : 0u) |
          (op.taken ? 8u : 0u));
  }
  return f.h;
}

std::uint64_t replay_tlb(const std::vector<DataAccess>& accesses) {
  hwsim::Tlb tlb({.entries = 48});
  Fnv f;
  for (const DataAccess& a : accesses) f.mix(tlb.access(a.addr));
  f.mix(tlb.misses());
  return f.h;
}

std::uint64_t replay_cache(const std::vector<DataAccess>& accesses) {
  hwsim::Cache cache(hwsim::miniature_l1d());
  Fnv f;
  for (const DataAccess& a : accesses) {
    const hwsim::CacheAccessResult r = cache.access(a.addr, a.is_store);
    f.mix((r.hit ? 1u : 0u) | (r.writeback ? 2u : 0u));
  }
  f.mix(cache.load_misses());
  f.mix(cache.store_misses());
  return f.h;
}

std::uint64_t replay_pmu(const std::vector<PmuEvent>& events) {
  hwsim::Pmu pmu;
  for (std::size_t r = 0; r < hwsim::Pmu::kNumCounters; ++r)
    pmu.program(r, static_cast<hwsim::HwEvent>(2 * r));
  for (const PmuEvent& e : events) pmu.add(e.event, e.n);
  Fnv f;
  for (std::size_t e = 0; e < hwsim::kNumEvents; ++e)
    f.mix(pmu.true_count(static_cast<hwsim::HwEvent>(e)));
  for (std::size_t r = 0; r < hwsim::Pmu::kNumCounters; ++r)
    f.mix(pmu.read(r).value);
  return f.h;
}

std::uint64_t replay_core(const std::vector<hwsim::MicroOp>& ops) {
  hwsim::Core core(hwsim::CoreConfig{}, hwsim::MemoryHierarchy::miniature());
  core.execute(ops);
  Fnv f;
  for (std::size_t e = 0; e < hwsim::kNumEvents; ++e)
    f.mix(core.pmu().true_count(static_cast<hwsim::HwEvent>(e)));
  f.mix(core.cycles());
  return f.h;
}

/// Console output plus one [bench] line per component.
class BenchLineReporter : public benchmark::ConsoleReporter {
 public:
  explicit BenchLineReporter(std::map<std::string, std::uint64_t> fingerprints)
      : fingerprints_(std::move(fingerprints)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string& name = run.run_name.function_name;
      const double ns_per_op = 1e9 / run.counters.at("items_per_second");
      std::fprintf(stderr, "[bench] hwsim %-14s %7.1f ns/op  fingerprint %016llx\n",
                   name.c_str(), ns_per_op,
                   static_cast<unsigned long long>(fingerprints_.at(name)));
    }
  }

 private:
  std::map<std::string, std::uint64_t> fingerprints_;
};

template <typename Replay>
void add_component(std::map<std::string, std::uint64_t>& fingerprints,
                   const std::string& name, std::size_t ops, Replay replay) {
  fingerprints[name] = replay();
  benchmark::RegisterBenchmark(
      name.c_str(),
      [ops, replay](benchmark::State& state) {
        for (auto _ : state) benchmark::DoNotOptimize(replay());
        state.SetItemsProcessed(static_cast<std::int64_t>(
            state.iterations() * static_cast<std::int64_t>(ops)));
      })
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<hwsim::MicroOp> ops = generate_ops();
  const std::vector<DataAccess> accesses = data_accesses(ops);
  const std::vector<PmuEvent> events = pmu_events();
  std::fprintf(stderr,
               "[bench] hwsim streams: %zu ops, %zu data accesses, %zu PMU "
               "events\n",
               ops.size(), accesses.size(), events.size());

  std::map<std::string, std::uint64_t> fingerprints;
  add_component(fingerprints, "Sandbox::next", ops.size(), replay_sandbox);
  add_component(fingerprints, "Tlb::access", accesses.size(),
                [&accesses] { return replay_tlb(accesses); });
  add_component(fingerprints, "Cache::access", accesses.size(),
                [&accesses] { return replay_cache(accesses); });
  add_component(fingerprints, "Pmu::add", events.size(),
                [&events] { return replay_pmu(events); });
  add_component(fingerprints, "Core::execute", ops.size(),
                [&ops] { return replay_core(ops); });

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchLineReporter reporter(std::move(fingerprints));
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
