// Extension study (beyond the paper's figures): the two directions its
// RELATED WORK and FUTURE WORK sections point to —
//
//  1. Ensemble learning (Khasawneh et al. RAID'15; Sayadi et al. DAC'18):
//     general vs ensemble classifiers on the same HPC dataset, with
//     hardware cost (a committee synthesizes N copies of the base design).
//  2. Statistical anomaly detection (future work #2 / Tang et al.
//     RAID'14): a benign-only Mahalanobis detector — no malware needed at
//     training time — versus the supervised detectors.
//
// Plus 10-fold cross-validation of the headline classifiers (the thesis
// names cross-validation as an evaluation option but uses a test set).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_common.hpp"
#include "hw/compile.hpp"
#include "ml/anomaly.hpp"
#include "ml/cross_validation.hpp"
#include "ml/ensemble.hpp"
#include "ml/evaluation.hpp"
#include "ml/registry.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace hmd;

void print_ensembles() {
  bench::print_banner("Extension: ensembles, anomaly detection, 10-fold CV");
  const auto& [train, test] = bench::binary_split();

  TextTable table("binary detection: general vs ensemble vs anomaly");
  table.set_header({"detector", "accuracy %", "benign recall %",
                    "malware recall %", "area (slices)"});
  const std::size_t num_features = train.num_features();
  const auto area_of = [num_features](const ml::Classifier& clf) {
    return hw::compile(clf, {.num_features = num_features})
        .report()
        .area_slices();
  };
  for (const std::string scheme :
       {"DecisionStump", "AdaBoostM1", "J48", "Bagging", "Mahalanobis"}) {
    auto clf = ml::make_classifier(scheme);
    clf->train(train);
    const auto ev = ml::evaluate(*clf, test);
    std::string area = "n/a";
    if (scheme == "DecisionStump" || scheme == "J48") {
      area = format("%.0f", area_of(*clf));
    } else if (scheme == "AdaBoostM1" || scheme == "Bagging") {
      // A committee synthesizes one base design per member.
      const auto* boost = dynamic_cast<const ml::AdaBoostM1*>(clf.get());
      const auto* bag = dynamic_cast<const ml::Bagging*>(clf.get());
      const std::size_t members =
          boost != nullptr ? boost->committee_size() : bag->committee_size();
      auto base = ml::make_classifier(scheme == "AdaBoostM1"
                                          ? "DecisionStump"
                                          : "J48");
      base->train(train);
      area = format("%.0f", static_cast<double>(members) * area_of(*base));
    }
    table.add_row({scheme, format("%.2f", ev.accuracy() * 100.0),
                   format("%.2f", ev.recall(0) * 100.0),
                   format("%.2f", ev.recall(1) * 100.0), area});
  }
  table.print(std::cout);
  std::cout << "(Mahalanobis trains on BENIGN windows only — a zero-day-"
               "capable baseline)\n\n";

  TextTable cv("10-fold cross-validation (binary, full feature set)");
  cv.set_header({"classifier", "pooled acc %", "fold mean %", "fold sd"});
  for (const std::string scheme : {"OneR", "JRip", "MLR"}) {
    Rng rng(33);
    // Folds fan across the bench pool; results are bit-identical to serial.
    const auto result = ml::cross_validate(
        [&scheme] { return ml::make_classifier(scheme); }, train, 10, rng,
        {.num_threads = bench::bench_pool().size(),
         .pool = &bench::bench_pool()});
    cv.add_row({scheme, format("%.2f", result.pooled.accuracy() * 100.0),
                format("%.2f", result.mean_accuracy() * 100.0),
                format("%.3f", result.stddev_accuracy())});
  }
  cv.print(std::cout);
}

void BM_TrainAdaBoost(benchmark::State& state) {
  const auto& [train, test] = bench::binary_split();
  (void)test;
  for (auto _ : state) {
    auto clf = ml::make_classifier("AdaBoostM1");
    clf->train(train);
    benchmark::DoNotOptimize(clf);
  }
}
BENCHMARK(BM_TrainAdaBoost)->Unit(benchmark::kMillisecond);

void BM_MahalanobisScore(benchmark::State& state) {
  const auto& [train, test] = bench::binary_split();
  auto clf = ml::make_classifier("Mahalanobis");
  clf->train(train);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clf->predict(test.features_of(i++ % test.num_instances())));
  }
}
BENCHMARK(BM_MahalanobisScore);

}  // namespace

int main(int argc, char** argv) {
  print_ensembles();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
