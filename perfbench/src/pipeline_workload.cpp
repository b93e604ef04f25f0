// paper_pipeline: the thesis flow end to end at a fixed reduced scale —
// collect the HPC dataset on a pool, split 70/30 binary, train and
// evaluate the seven study schemes, compile each to a netlist and run the
// test split on the cycle-accurate simulator. serve does no work here.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "collect.hpp"
#include "core/dataset_builder.hpp"
#include "hw/compile.hpp"
#include "hw/fixed_point_eval.hpp"
#include "hw/netlist_sim.hpp"
#include "ml/evaluation.hpp"
#include "ml/quantized.hpp"
#include "ml/registry.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hmd;

namespace {

constexpr std::size_t kSampleWindows = 12;
constexpr double kScale = 0.3;
/// The warm-up flow run as set-up: every code path once, on a tiny dataset.
constexpr double kWarmupScale = 0.05;
constexpr std::size_t kSetups = 3;

struct SchemeRun {
  std::string scheme;
  std::unique_ptr<ml::Classifier> model;
  double train_s = 0.0;
  double eval_s = 0.0;
  double accuracy = 0.0;
  bool compiled = false;
  double compile_s = 0.0;
  double area_slices = 0.0;
  std::uint32_t cycles_per_window = 0;
  double sim_s = 0.0;
  std::vector<std::size_t> decisions;
};

struct PipelineRun {
  Collected collected;
  ml::Dataset train, test;
  std::vector<SchemeRun> schemes;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t operations = 0;
};

/// Seed to the last netlist verdict. Every layer call is timed from here.
PipelineRun run_pipeline(std::uint64_t seed, double scale, ThreadPool& pool,
                         const std::string& id) {
  PipelineRun r;
  const double cpu0 = process_cpu_seconds();
  const double t0 = wall_seconds();
  r.collected = collect(pipeline_config(seed, scale, kSampleWindows), &pool, id);
  {
    Span split("ml.split", id);
    const ml::Dataset binary = core::DatasetBuilder::to_binary(r.collected.data);
    Rng rng(seed ^ 0x70307030);
    auto [train, test] = binary.stratified_split(0.7, rng);
    r.train = std::move(train);
    r.test = std::move(test);
  }
  r.operations = 2;
  const std::vector<double> absmax = hw::calibrate_feature_absmax(r.test);
  for (const std::string& scheme : ml::binary_study_classifiers()) {
    SchemeRun s;
    s.scheme = scheme;
    const std::string stage = id + " " + scheme;
    s.model = ml::make_classifier(scheme);
    {
      Span train("ml.train", stage);
      s.model->train(r.train);
      s.train_s = train.stop();
    }
    {
      Span eval("ml.evaluate", stage);
      s.accuracy = ml::evaluate(*s.model, r.test).accuracy();
      s.eval_s = eval.stop();
    }
    r.operations += 2;
    if (hw::compile_supported(*s.model)) {
      hw::CompileOptions opts;
      opts.num_features = r.train.num_features();
      opts.feature_absmax = absmax;
      Span compile("hw.compile", stage);
      const hw::CompiledDesign design = hw::compile(*s.model, std::move(opts));
      s.compile_s = compile.stop();
      s.compiled = true;
      s.area_slices = design.report().area_slices();
      const hw::NetlistSimulator sim(design);
      s.cycles_per_window = sim.cycles_per_window();
      s.decisions.reserve(r.test.num_instances());
      Span run("hw.simulate", stage);
      for (std::size_t i = 0; i < r.test.num_instances(); ++i)
        s.decisions.push_back(sim.run(r.test.features_of(i)));
      s.sim_s = run.stop();
      r.operations += 2;
    }
    r.schemes.push_back(std::move(s));
  }
  r.wall_s = wall_seconds() - t0;
  r.cpu_s = process_cpu_seconds() - cpu0;
  return r;
}

/// FNV-1a over every decision and accuracy of a run: equal across the
/// repetitions of one seed, since the flow is deterministic in it.
std::uint64_t fingerprint(const PipelineRun& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const SchemeRun& s : r.schemes) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s.accuracy, sizeof bits);
    mix(bits);
    for (const std::size_t d : s.decisions) mix(d);
  }
  return h;
}

/// Aliasing shared_ptr: lets the reference borrow a pipeline-owned model.
std::shared_ptr<const ml::Classifier> borrow(const ml::Classifier& c) {
  return {std::shared_ptr<const ml::Classifier>(), &c};
}

}  // namespace

void run_paper_pipeline(const RunOptions& opt, Report& report) {
  report.param("dataset_scale", kScale);
  report.param("windows_per_sample", static_cast<double>(kSampleWindows));
  report.param("warmup_scale", kWarmupScale);
  const std::size_t jobs = collect_jobs();
  report.param("collect_threads", static_cast<double>(jobs));
  ThreadPool pool(jobs - 1);

  std::vector<double> setup_s;
  for (std::size_t a = 0; a < kSetups; ++a)
    setup_s.push_back(run_pipeline(opt.seed, kWarmupScale, pool, "setup " + std::to_string(a)).wall_s);

  // Whole pipelines back to back until --seconds have passed; the timings
  // are their medians. A traced run adds one more pipeline with spans on.
  std::vector<double> wall_s, cpu_s;
  std::vector<std::uint64_t> prints;
  PipelineRun last;
  const double t0 = wall_seconds();
  do {
    last = run_pipeline(opt.seed, kScale, pool, "pipeline " + std::to_string(wall_s.size()));
    wall_s.push_back(last.wall_s);
    cpu_s.push_back(last.cpu_s);
    prints.push_back(fingerprint(last));
  } while (wall_seconds() - t0 < opt.seconds);
  if (opt.trace) {
    tracer().set_enabled(true);
    last = run_pipeline(opt.seed, kScale, pool, "traced");
    prints.push_back(fingerprint(last));
  }
  const PipelineRun& r = last;
  report.param("pipelines", static_cast<double>(wall_s.size()));
  report.gate("repeatable", std::count(prints.begin(), prints.end(), prints[0]) ==
                                static_cast<std::ptrdiff_t>(prints.size()),
              std::to_string(prints.size()) + " pipelines of one seed");

  // Gates: the dataset has composition x windows rows, and the netlist
  // decisions of every exact scheme equal the Q16.16 reference.
  report.gate("dataset_rows", r.collected.rows_ok,
              std::to_string(r.collected.data.num_instances()) + " rows");
  const std::vector<std::string> exact = ml::rtl_exact_schemes();
  const std::vector<double> absmax = hw::calibrate_feature_absmax(r.test);
  std::size_t verdicts = 0;
  for (const SchemeRun& s : r.schemes) {
    if (!s.compiled) continue;
    verdicts += s.decisions.size();
    if (std::find(exact.begin(), exact.end(), s.scheme) == exact.end()) continue;
    const ml::QuantizedModel reference(borrow(*s.model), ml::QuantizedModel::Mode::kQ16Input,
                                       absmax);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < r.test.num_instances(); ++i)
      if (s.decisions[i] != reference.predict(r.test.features_of(i))) ++mismatches;
    report.gate("netlist_eq_q16." + s.scheme, mismatches == 0,
                std::to_string(mismatches) + " of " + std::to_string(r.test.num_instances()) +
                    " decisions differ");
  }
  report.count_attempt(r.operations * prints.size());

  double accuracy = 0.0, area = 0.0, train_s = 0.0, eval_s = 0.0;
  std::uint32_t cycles_max = 0;
  double compile_s = 0.0, sim_s = 0.0;
  for (const SchemeRun& s : r.schemes) {
    accuracy += s.accuracy;
    area += s.area_slices;
    train_s += s.train_s;
    eval_s += s.eval_s;
    compile_s += s.compile_s;
    sim_s += s.sim_s;
    cycles_max = std::max(cycles_max, s.cycles_per_window);
  }
  accuracy = 100.0 * accuracy / static_cast<double>(r.schemes.size());
  const double rows = static_cast<double>(r.collected.data.num_instances());
  const double pipeline_s = quantile(wall_s, 0.5);
  report.timing("pipeline", "s", summarize(wall_s));

  report.add(Kind::kEndToEnd, "setup_s", "s", quantile(setup_s, 0.5));
  report.add(Kind::kEndToEnd, "peak_rss_mb", "MB", peak_rss_mb());
  report.add(Kind::kEndToEnd, "windows_per_s", "1/s", rows / pipeline_s);
  report.add(Kind::kEndToEnd, "cpu_us_per_window", "us", quantile(cpu_s, 0.5) * 1e6 / rows);
  report.add(Kind::kDetail, "accuracy_pct", "%", accuracy);
  report.add(Kind::kDetail, "pipeline_s", "s", pipeline_s);
  report.add(Kind::kDetail, "area_slices", "slices", area);
  report.add(Kind::kDetail, "dataset_rows", "count", rows);

  report.add(Kind::kLayer, "ml.train_ms", "ms", train_s * 1e3);
  if (opt.trace) {
    report.add(Kind::kLayer, "ml.score_us_per_window", "us",
               eval_s * 1e6 / (static_cast<double>(r.test.num_instances()) *
                               static_cast<double>(r.schemes.size())));
    add_collection_layers(report, pipeline_config(opt.seed, kScale, kSampleWindows),
                          r.collected, jobs);
    report.add(Kind::kLayer, "trace.overhead_pct", "%",
               100.0 * (r.wall_s - pipeline_s) / pipeline_s);
  }
  for (const SchemeRun& s : r.schemes)
    report.add(Kind::kDetail, "ml.train_s." + s.scheme, "s", s.train_s);
  report.add(Kind::kDetail, "ml.eval_rows_per_s", "1/s",
             static_cast<double>(r.test.num_instances() * r.schemes.size()) / eval_s);
  report.add(Kind::kDetail, "hw.compile_ms", "ms", compile_s * 1e3);
  report.add(Kind::kDetail, "hw.sim_windows_per_s", "1/s", static_cast<double>(verdicts) / sim_s);
  report.add(Kind::kDetail, "hw.cycles_per_window_max", "cycles", cycles_max);
}

}  // namespace perfbench
