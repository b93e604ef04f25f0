// HPC dataset generation for every workload (core::DatasetBuilder on a
// bounded pool) and the single-thread probes of the collection layers
// below it: workload (Sandbox::next), hwsim (Core::execute) and perf
// (HpcCollector::collect).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/pipeline_config.hpp"
#include "ml/dataset.hpp"
#include "report.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Threads that collect: min(hardware concurrency, 4), the caller
/// included (the pool has one worker fewer; see util/thread_pool.hpp).
std::size_t collect_jobs();

/// Table 1 scaled by `scale`, `windows` 10 ms windows per sample, the
/// collection settings of the repository's figure benches, seeded by `seed`.
hmd::core::PipelineConfig pipeline_config(std::uint64_t seed, double scale,
                                          std::size_t windows);

/// build_multiclass_dataset on `pool`, timed as a "core.collect" span.
/// Adds the gate that the row count equals composition x windows.
struct Collected {
  hmd::ml::Dataset data;
  double seconds = 0.0;
  bool rows_ok = false;
};
Collected collect(const hmd::core::PipelineConfig& config,
                  hmd::ThreadPool* pool, std::string_view span_id);

/// Adds the collection-side per-layer metrics to `report`:
/// workload.ops_per_s, hwsim.ops_per_s, hwsim.ipc, perf.windows_per_s
/// (single-thread probes over samples spread across the database),
/// core.collect_rows_per_s (from the pooled build) and
/// util.pool_efficiency_pct (pooled rows/s over jobs x the rows/s of the
/// same dataset built serially, which this builds once more).
void add_collection_layers(Report& report,
                           const hmd::core::PipelineConfig& config,
                           const Collected& pooled, std::size_t jobs);

}  // namespace perfbench
