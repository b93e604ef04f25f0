// Figure 15: Latency comparison — per-inference latency of each
// classifier's hardware implementation (cycles and µs at the 100 MHz HLS
// target clock), at 16/8/4 features. Paper shape: trees/rules classify in a
// few cycles; the MLP's MAC layers take an order of magnitude longer.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_common.hpp"
#include "hw/compile.hpp"
#include "hw/pareto.hpp"
#include "ml/registry.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace hmd;

/// The binary-study MLP, trained on the bench split and compiled.
hw::CompiledDesign compile_mlp() {
  const auto& [train, test] = bench::binary_split();
  (void)test;
  auto mlp = ml::make_classifier("MLP");
  mlp->train(train);
  return hw::compile(*mlp, {.num_features = train.num_features()});
}

void print_fig15() {
  bench::print_banner("Figure 15: Latency comparison (100 MHz target)");
  const bench::BinaryStudyResults& r = bench::binary_study_results();

  TextTable table("latency vs number of features");
  table.set_header({"classifier", "cycles(16)", "cycles(8)", "cycles(4)",
                    "us(16)"});
  for (std::size_t i = 0; i < r.full.size(); ++i) {
    table.add_row({r.full[i].scheme,
                   std::to_string(r.full[i].synthesis.latency_cycles),
                   std::to_string(r.top8[i].synthesis.latency_cycles),
                   std::to_string(r.top4[i].synthesis.latency_cycles),
                   format("%.2f", r.full[i].synthesis.latency_us())});
  }
  table.print(std::cout);

  // Resource-shared variant: the same compiled MLP netlist re-scheduled
  // over a bounded multiplier pool.
  const hw::CompiledDesign mlp = compile_mlp();
  TextTable sharing("MLP latency under multiplier sharing");
  sharing.set_header({"multipliers", "area (slices)", "latency cycles"});
  const auto add_row = [&](const std::string& label,
                           const hw::OperatorAllocation& alloc) {
    const hw::SynthesisReport report = mlp.report(alloc);
    sharing.add_row({label, format("%.0f", report.area_slices()),
                     std::to_string(report.latency_cycles)});
  };
  for (std::uint32_t muls : {1u, 4u, 16u, 64u})
    add_row(std::to_string(muls), {.multipliers = muls});
  add_row("unbounded", {});
  sharing.print(std::cout);

  // The Pareto-optimal area/latency designs an implementer would pick from.
  TextTable pareto("MLP area-latency Pareto front (design-space sweep)");
  pareto.set_header({"area (slices)", "latency (cycles)"});
  for (const hw::DesignPoint& p :
       hw::pareto_front(hw::explore_design_space(mlp)))
    pareto.add_row({format("%.0f", p.area_slices),
                    std::to_string(p.latency_cycles)});
  pareto.print(std::cout);
}

void BM_ScheduleAsap(benchmark::State& state) {
  const hw::CompiledDesign mlp = compile_mlp();
  for (auto _ : state) {
    auto sched = mlp.netlist().schedule();
    benchmark::DoNotOptimize(sched);
  }
}
BENCHMARK(BM_ScheduleAsap)->Unit(benchmark::kMicrosecond);

void BM_ScheduleConstrained(benchmark::State& state) {
  const hw::CompiledDesign mlp = compile_mlp();
  const hw::OperatorAllocation alloc{.multipliers = 8};
  for (auto _ : state) {
    auto sched = mlp.netlist().schedule(alloc);
    benchmark::DoNotOptimize(sched);
  }
}
BENCHMARK(BM_ScheduleConstrained)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_fig15();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
