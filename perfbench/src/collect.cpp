#include "collect.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "core/dataset_builder.hpp"
#include "hwsim/core.hpp"
#include "hwsim/memory_hierarchy.hpp"
#include "perf/collector.hpp"
#include "workload/sample_database.hpp"
#include "workload/sandbox.hpp"

namespace perfbench {

using namespace hmd;

namespace {

/// Samples spread evenly over the database, so every class is probed.
constexpr std::size_t kProbeSamples = 24;
/// Ops per probed sample for the workload and hwsim probes.
constexpr std::size_t kProbeOps = 60000;

std::vector<workload::SampleRecord> probe_samples(
    const core::PipelineConfig& config) {
  const workload::SampleDatabase db = core::DatasetBuilder(config).build_database();
  std::vector<workload::SampleRecord> picked;
  const std::size_t n = db.size();
  for (std::size_t i = 0; i < std::min(kProbeSamples, n); ++i)
    picked.push_back(db.samples()[i * n / std::min(kProbeSamples, n)]);
  return picked;
}

}  // namespace

std::size_t collect_jobs() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw, 4);
}

core::PipelineConfig pipeline_config(std::uint64_t seed, double scale,
                                     std::size_t windows) {
  core::PipelineConfig cfg;
  cfg.seed = seed;
  cfg.composition = workload::DatabaseComposition::scaled(scale);
  cfg.collector.num_windows = windows;
  cfg.collector.ops_per_window = 3000;
  return cfg;
}

Collected collect(const core::PipelineConfig& config, ThreadPool* pool,
                  std::string_view span_id) {
  Collected out;
  Span span("core.collect", span_id);
  out.data = core::DatasetBuilder(config).build_multiclass_dataset({}, pool);
  out.seconds = span.stop();
  out.rows_ok = out.data.num_instances() ==
                config.composition.total() * config.collector.num_windows;
  return out;
}

void add_collection_layers(Report& report, const core::PipelineConfig& config,
                           const Collected& pooled, std::size_t jobs) {
  const std::vector<workload::SampleRecord> samples = probe_samples(config);

  // workload: op generation alone (the sandboxed trace of each sample).
  std::vector<std::vector<hwsim::MicroOp>> ops(samples.size());
  double gen_s = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    workload::Sandbox sandbox(samples[i], config.sandbox);
    ops[i].reserve(kProbeOps);
    Span span("workload.next", "probe " + std::to_string(i));
    for (std::size_t k = 0; k < kProbeOps; ++k) ops[i].push_back(sandbox.next());
    gen_s += span.stop();
  }

  // hwsim: executing the pre-generated ops on a fresh miniature core.
  double sim_s = 0.0;
  std::uint64_t cycles = 0, instructions = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    hwsim::Core core(hwsim::CoreConfig{}, hwsim::MemoryHierarchy::miniature());
    Span span("hwsim.execute", "probe " + std::to_string(i));
    core.execute(ops[i]);
    sim_s += span.stop();
    cycles += core.cycles();
    instructions += core.instructions();
  }

  // perf: the whole per-sample collection path DatasetBuilder runs on each
  // pool thread.
  const perf::HpcCollector collector(config.collector);
  double collect_s = 0.0;
  std::size_t windows = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    workload::Sandbox sandbox(samples[i], config.sandbox);
    hwsim::Core core(hwsim::CoreConfig{}, hwsim::MemoryHierarchy::miniature());
    Span span("perf.collect", "probe " + std::to_string(i));
    windows += collector.collect(core, sandbox, samples[i].seed ^ 0xab5e11).size();
    collect_s += span.stop();
  }

  // The same dataset built serially: the single-thread rate the pool's
  // efficiency is measured against.
  const Collected serial = collect(config, nullptr, "serial");

  const double total_ops = static_cast<double>(samples.size() * kProbeOps);
  const double pooled_rows_per_s =
      static_cast<double>(pooled.data.num_instances()) / pooled.seconds;
  const double serial_rows_per_s =
      static_cast<double>(serial.data.num_instances()) / serial.seconds;
  report.add(Kind::kLayer, "workload.ops_per_s", "1/s", total_ops / gen_s);
  report.add(Kind::kLayer, "hwsim.ops_per_s", "1/s", total_ops / sim_s);
  report.add(Kind::kLayer, "hwsim.ipc", "instr/cycle",
             static_cast<double>(instructions) / static_cast<double>(cycles));
  report.add(Kind::kLayer, "perf.windows_per_s", "1/s", static_cast<double>(windows) / collect_s);
  report.add(Kind::kLayer, "core.collect_rows_per_s", "1/s", pooled_rows_per_s);
  report.add(Kind::kLayer, "util.pool_efficiency_pct", "%",
             100.0 * pooled_rows_per_s / (static_cast<double>(jobs) * serial_rows_per_s));
}

}  // namespace perfbench
