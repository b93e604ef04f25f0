// The benchmark's workloads. Each one generates every input from the seed,
// measures, checks its outputs and fills a Report. README.md in this
// directory says why each workload exists and which numbers it reports.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Length of the measured phase: the paced serve phase, or the span of
  /// repeated pipeline runs.
  double seconds = 10.0;
  /// Traced run: record spans and report the per-layer metrics.
  bool trace = false;
};

/// IBk (k=5), float tier, 128 streams x 100 windows/s.
void run_serve_knn(const RunOptions& options, Report& report);
/// MLR, int8 tier, 2048 streams x 100 windows/s, a model swap every 100
/// ticks.
void run_serve_fleet(const RunOptions& options, Report& report);
/// collect -> split -> train/evaluate 7 schemes -> compile -> simulate.
void run_paper_pipeline(const RunOptions& options, Report& report);

}  // namespace perfbench
