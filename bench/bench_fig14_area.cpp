// Figure 14: Area comparison — FPGA resources of each classifier's
// hardware implementation at 16/8/4 features. Paper shape: rule/tree
// learners cost a handful of comparators; MLP costs hundreds of DSP-mapped
// multipliers — orders of magnitude more area.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_common.hpp"
#include "hw/compile.hpp"
#include "ml/registry.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace hmd;

void print_fig14() {
  bench::print_banner("Figure 14: Area comparison (compiled netlist)");
  const bench::BinaryStudyResults& r = bench::binary_study_results();

  TextTable table("slice-equivalent area vs number of features");
  table.set_header({"classifier", "16 feat", "8 feat", "4 feat", "LUT(16)",
                    "FF(16)", "DSP(16)", "BRAM(16)"});
  for (std::size_t i = 0; i < r.full.size(); ++i) {
    const auto& res = r.full[i].synthesis.resources;
    table.add_row({r.full[i].scheme,
                   format("%.0f", r.full[i].synthesis.area_slices()),
                   format("%.0f", r.top8[i].synthesis.area_slices()),
                   format("%.0f", r.top4[i].synthesis.area_slices()),
                   std::to_string(res.luts), std::to_string(res.ffs),
                   std::to_string(res.dsps), std::to_string(res.brams)});
  }
  table.print(std::cout);

  // Headline ratio the thesis's Fig. 14 bar chart shows.
  double mlp_area = 0.0, oner_area = 0.0;
  for (const auto& row : r.full) {
    if (row.scheme == "MLP") mlp_area = row.synthesis.area_slices();
    if (row.scheme == "OneR") oner_area = row.synthesis.area_slices();
  }
  std::cout << format("MLP / OneR area ratio: %.0fx\n",
                      mlp_area / oner_area);
}

void BM_SynthesizeMlp(benchmark::State& state) {
  const auto& [train, test] = bench::binary_split();
  (void)test;
  auto clf = ml::make_classifier("MLP");
  clf->train(train);
  for (auto _ : state) {
    auto report =
        hw::compile(*clf, {.num_features = train.num_features()}).report();
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SynthesizeMlp)->Unit(benchmark::kMicrosecond);

void BM_SynthesizeJRip(benchmark::State& state) {
  const auto& [train, test] = bench::binary_split();
  (void)test;
  auto clf = ml::make_classifier("JRip");
  clf->train(train);
  for (auto _ : state) {
    auto report =
        hw::compile(*clf, {.num_features = train.num_features()}).report();
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SynthesizeJRip)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_fig14();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
