// serve_knn and serve_fleet: open-loop load on serve::StreamEngine.
//
// One generator thread is the only producer. Tick i is due i * 10 ms after
// the phase starts (the paper's sampling period); at each tick it ingests
// one window per stream and calls drain(), which returns once every
// verdict of that period is latched. Tick latency runs from the scheduled
// time to drain() returning (see TickAccount). An unpaced phase then
// pushes fixed bursts under kBlock from two feeders and drains once per
// burst, for the saturation rate. Feeders plus shards (2) stay within 4
// cores.
#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "collect.hpp"
#include "core/dataset_builder.hpp"
#include "core/online_detector.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/quantized.hpp"
#include "serve/stream_engine.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hmd;

namespace {

constexpr double kPeriodMs = 10.0;
constexpr std::size_t kShards = 2;
constexpr std::size_t kWindow = 16;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmupTicks = 20;
constexpr std::size_t kSampleWindows = 12;
constexpr double kTrainShare = 0.7;
constexpr std::size_t kSatBursts = 9;
constexpr auto kSpinWindow = std::chrono::microseconds(2000);

struct ServeSpec {
  serve::ServeConfig::Tier tier;
  std::size_t streams;
  /// Publish the other model every this many ticks (0 = one model).
  std::size_t swap_every;
  /// Windows per stream in each unpaced burst.
  std::size_t burst_windows;
  /// Table 1 scale of the generated dataset.
  double scale;
};

/// CPU placement on 4 or more CPUs: the load generator gets the first
/// CPU, each engine worker one of the next ones and the second
/// saturation feeder the last. Left to the scheduler, two of these
/// threads now and then share a core, and tick latency or the saturation
/// rate flips between two modes from run to run.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    if (cpus_.size() < 4) cpus_.clear();
  }
  bool active() const { return !cpus_.empty(); }
  /// Move the calling thread to the generator's CPU.
  void to_generator() const { pin(0, 0); }
  /// Move the calling thread to the second feeder's CPU.
  void to_feeder() const { pin(0, cpus_.size() - 1); }
  /// Pin each thread in `after` but not in `before` (the workers an
  /// engine just started) to its own CPU between the two above.
  void pin_new_threads(const std::vector<int>& before, const std::vector<int>& after) const {
    std::size_t k = 0;
    for (const int tid : after)
      if (std::find(before.begin(), before.end(), tid) == before.end())
        pin(tid, 1 + k++ % (cpus_.size() - 2));
  }

 private:
  /// Pin thread `tid` (0 = the caller) to the `index`-th allowed CPU.
  void pin(int tid, std::size_t index) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[index], &one);
    if (sched_setaffinity(tid, sizeof one, &one) != 0)
      throw std::runtime_error("sched_setaffinity failed");
  }
  std::vector<int> cpus_;
};

/// Thread ids of this process.
std::vector<int> thread_ids() {
  std::vector<int> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir))
      if (e->d_name[0] != '.') ids.push_back(std::atoi(e->d_name));
    closedir(dir);
  }
  return ids;
}

/// One published model generation: from which per-stream window index on
/// it scored, and which of the trained models it was.
struct Epoch {
  std::size_t first_window;
  std::size_t model;
};

/// Everything one set-up builds. Held by pointer: the replay windows are
/// spans into `binary`, and the engine borrows the models.
struct Setup {
  Collected collected;
  ml::Dataset binary;
  std::vector<std::shared_ptr<const ml::Classifier>> models;
  double train_ms = 0.0;
  // Replay: a stream is one monitored core running held-out programs of
  // one label back to back, 12 windows each, in a seeded order. Stream s
  // starts at position first[s] of its label's program list, at window
  // offset[s] of that program; over a run every stream passes through
  // most programs of its label, so the scored mix is the held-out set.
  std::vector<std::size_t> programs[2];  ///< held-out samples per label
  std::vector<std::size_t> first;
  std::vector<std::size_t> offset;
  std::vector<bool> malware;
  std::shared_ptr<serve::ModelHub> hub;
  std::unique_ptr<serve::StreamEngine> engine;
  std::vector<serve::StreamEngine::StreamHandle> handles;
  std::vector<Epoch> epochs;
  std::size_t current_model = 0;
  std::size_t sent = 0;  ///< windows ingested per stream so far

  std::span<const double> window(std::size_t stream, std::size_t j) const {
    const std::vector<std::size_t>& list = programs[malware[stream] ? 1 : 0];
    const std::size_t pos = offset[stream] + j;
    const std::size_t program = list[(first[stream] + pos / kSampleWindows) % list.size()];
    return binary.features_of(program * kSampleWindows + pos % kSampleWindows);
  }
  /// Window `j` of streams [lo, hi), in stream order.
  void ingest(std::size_t lo, std::size_t hi, std::size_t j) {
    for (std::size_t st = lo; st < hi; ++st) engine->ingest(handles[st], window(st, j));
  }
  /// One window per stream.
  void ingest_round() { ingest(0, handles.size(), sent++); }
};

std::string tick_id(std::size_t tick) { return "tick " + std::to_string(tick); }

std::unique_ptr<Setup> set_up(const ServeSpec& spec, const RunOptions& opt,
                              ThreadPool& pool, const CpuSplit& cpus, std::size_t attempt) {
  auto s = std::make_unique<Setup>();
  const std::string id = "setup " + std::to_string(attempt);
  s->collected = collect(pipeline_config(opt.seed, spec.scale, kSampleWindows),
                         &pool, id);
  s->binary = core::DatasetBuilder::to_binary(s->collected.data);

  // Sample-level split, stratified by class: whole programs are either
  // trained on or replayed, and both sides keep the Table 1 class mix.
  const std::size_t samples = s->binary.num_instances() / kSampleWindows;
  std::vector<std::vector<std::size_t>> by_class(s->collected.data.num_classes());
  for (std::size_t smp = 0; smp < samples; ++smp)
    by_class[s->collected.data.class_of(smp * kSampleWindows)].push_back(smp);
  Rng split_rng(opt.seed ^ 0x5e77e5);
  std::vector<std::size_t> train_samples, replay_samples;
  for (std::vector<std::size_t>& group : by_class) {
    split_rng.shuffle(group);
    const auto n_train = static_cast<std::size_t>(
        std::lround(kTrainShare * static_cast<double>(group.size())));
    train_samples.insert(train_samples.end(), group.begin(), group.begin() + n_train);
    replay_samples.insert(replay_samples.end(), group.begin() + n_train, group.end());
  }

  auto rows_of = [&](const std::vector<std::size_t>& picked) {
    std::vector<std::size_t> rows;
    for (const std::size_t smp : picked)
      for (std::size_t w = 0; w < kSampleWindows; ++w)
        rows.push_back(smp * kSampleWindows + w);
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  Span train_span("ml.train", id);
  if (spec.tier == serve::ServeConfig::Tier::kFloat) {
    auto knn = std::make_shared<ml::Knn>(5);
    knn->train(ml::DatasetView(s->binary, rows_of(train_samples)));
    s->models.push_back(std::move(knn));
  } else {
    // Two MLR generations, each trained on its own seeded half of the
    // training samples; the paced phase alternates between them.
    for (std::uint64_t m = 0; m < 2; ++m) {
      Rng pick(opt.seed * 2 + 1 + m);
      std::vector<std::size_t> half;
      for (const std::size_t smp : train_samples)
        if (pick.bernoulli(0.5)) half.push_back(smp);
      auto mlr = std::make_shared<ml::Logistic>();
      mlr->train(ml::DatasetView(s->binary, rows_of(half)));
      s->models.push_back(std::move(mlr));
    }
  }
  s->train_ms = train_span.stop() * 1e3;

  // Stream s takes its label from the s-th program of the shuffled
  // held-out list, so labels are spread as in the held-out set.
  Rng replay_rng(opt.seed ^ 0x7e91a7);
  replay_rng.shuffle(replay_samples);
  for (const std::size_t smp : replay_samples)
    s->programs[s->binary.class_of(smp * kSampleWindows)].push_back(smp);
  for (std::size_t st = 0; st < spec.streams; ++st) {
    const std::size_t smp = replay_samples[st % replay_samples.size()];
    const bool malware = s->binary.class_of(smp * kSampleWindows) == 1;
    const std::vector<std::size_t>& list = s->programs[malware ? 1 : 0];
    s->malware.push_back(malware);
    s->first.push_back(static_cast<std::size_t>(
        std::find(list.begin(), list.end(), smp) - list.begin()));
    s->offset.push_back(replay_rng.uniform_index(kSampleWindows));
  }

  Span engine_span("serve.construct", id);
  s->hub = std::make_shared<serve::ModelHub>();
  s->hub->publish(s->models[0]);
  s->epochs.push_back({0, 0});
  serve::ServeConfig config;
  config.num_shards = kShards;
  config.window_size = kWindow;
  config.tier = spec.tier;
  const std::vector<int> before = thread_ids();
  s->engine = std::make_unique<serve::StreamEngine>(s->hub, config);
  cpus.pin_new_threads(before, thread_ids());
  cpus.to_generator();
  for (std::size_t st = 0; st < spec.streams; ++st)
    s->handles.push_back(s->engine->register_stream(st));
  for (std::size_t t = 0; t < kWarmupTicks; ++t) {
    s->ingest_round();
    s->engine->drain();
  }
  engine_span.stop();
  return s;
}

/// Sums and counts read from the serve.* instruments of the process
/// metrics registry (never their bucket quantiles).
struct EngineCounters {
  double batch_windows = 0.0;
  std::uint64_t batches = 0;
  double score_us = 0.0;

  static EngineCounters read() {
    MetricsRegistry& reg = metrics();
    EngineCounters c;
    const Histogram& size = reg.histogram("serve.batch_size", default_count_buckets());
    c.batch_windows = size.sum();
    c.batches = size.count();
    c.score_us = reg.histogram("serve.score_us", default_latency_buckets_us()).sum();
    return c;
  }
  EngineCounters operator-(const EngineCounters& o) const {
    return {batch_windows - o.batch_windows, batches - o.batches, score_us - o.score_us};
  }
};

struct PacedResult {
  TickAccount ticks{kPeriodMs};
  std::vector<double> drain_wait_ms;
  std::vector<double> swap_tick_ms;
  std::vector<double> publish_us;
  double ingest_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t windows = 0;
  EngineCounters counters;
};

PacedResult run_paced(Setup& s, const ServeSpec& spec, std::size_t n_ticks,
                      std::size_t first_tick_id) {
  using clock = std::chrono::steady_clock;
  PacedResult r;
  const EngineCounters before = EngineCounters::read();
  const double cpu0 = process_cpu_seconds();
  const double gen_cpu0 = thread_cpu_seconds();
  double generator_engine_cpu = 0.0;
  const clock::time_point start = clock::now();
  auto ms_since_start = [&](clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - start).count();
  };
  bool swap_tick = false;
  for (std::size_t i = 0; i < n_ticks; ++i) {
    const std::string id = tick_id(first_tick_id + i);
    if (spec.swap_every != 0 && i != 0 && i % spec.swap_every == 0) {
      // Between ticks: the previous drain() returned, the next ingest has
      // not begun, so every window's scoring epoch is fixed.
      s.current_model = 1 - s.current_model;
      Span publish("serve.publish", id);
      s.hub->publish(s.models[s.current_model]);
      r.publish_us.push_back(publish.stop() * 1e6);
      s.epochs.push_back({s.sent, s.current_model});
      swap_tick = true;
    }
    const clock::time_point due =
        start + std::chrono::microseconds(static_cast<std::int64_t>(i * kPeriodMs * 1000));
    // Sleep most of the gap, then spin: a wake-up from sleep on a shared
    // VM can land milliseconds late, which would be the generator's delay,
    // not the detector's.
    std::this_thread::sleep_until(due - kSpinWindow);
    while (clock::now() < due) {
    }
    const clock::time_point begin = clock::now();
    const double tick_cpu0 = thread_cpu_seconds();
    Span ingest("serve.ingest", id);
    s.ingest_round();
    r.ingest_s += ingest.stop();
    const clock::time_point ingested = clock::now();
    bool failed = false;
    {
      Span drain("serve.drain", id);
      try {
        s.engine->drain();
      } catch (const std::exception&) {
        failed = true;
      }
    }
    const clock::time_point end = clock::now();
    generator_engine_cpu += thread_cpu_seconds() - tick_cpu0;
    r.ticks.record(i, ms_since_start(begin), ms_since_start(end), failed);
    r.drain_wait_ms.push_back(std::chrono::duration<double, std::milli>(end - ingested).count());
    if (swap_tick) r.swap_tick_ms.push_back(r.ticks.latency_ms().back());
    swap_tick = false;
  }
  r.wall_s = std::chrono::duration<double>(clock::now() - start).count();
  // Process CPU, less what the generator burned outside its engine calls
  // (sleeping and spinning to the schedule are the load's, not the
  // detector's).
  const double generator_cpu = thread_cpu_seconds() - gen_cpu0;
  r.cpu_s = process_cpu_seconds() - cpu0 - (generator_cpu - generator_engine_cpu);
  r.windows = n_ticks * s.handles.size();
  r.counters = EngineCounters::read() - before;
  return r;
}

/// Unpaced bursts under kBlock: windows/s of each burst, from the first
/// ingest to drain() returning. Two feeders, each owning half the streams,
/// so the shards rather than one producer set the rate.
std::vector<double> run_saturation(Setup& s, const ServeSpec& spec, const CpuSplit& cpus) {
  std::vector<double> rates;
  const std::size_t n = s.handles.size();
  auto feed = [&s, &spec](std::size_t lo, std::size_t hi) {
    for (std::size_t w = 0; w < spec.burst_windows; ++w) s.ingest(lo, hi, s.sent + w);
  };
  for (std::size_t b = 0; b < kSatBursts; ++b) {
    Span burst("serve.saturate", "burst " + std::to_string(b));
    std::exception_ptr second_error;
    std::thread second([&] {
      try {
        cpus.to_feeder();
        feed(n / 2, n);
      } catch (...) {
        second_error = std::current_exception();
      }
    });
    try {
      feed(0, n / 2);
    } catch (...) {
      second.join();
      throw;
    }
    second.join();
    if (second_error) std::rethrow_exception(second_error);
    s.engine->drain();
    s.sent += spec.burst_windows;
    rates.push_back(static_cast<double>(spec.burst_windows * n) / burst.stop());
  }
  return rates;
}

/// The serial reference: every stream's windows replayed through its own
/// OnlineDetector, each window scored by the model (or, on the int8 tier,
/// the int8 QuantizedModel of the model) whose epoch was live when it was
/// ingested. Returns the detector state per stream.
std::vector<core::OnlineDetector::State> serial_replay(const Setup& s,
                                                       const ServeSpec& spec,
                                                       ThreadPool& pool) {
  std::vector<std::shared_ptr<const ml::Classifier>> scorers;
  for (const auto& m : s.models)
    scorers.push_back(spec.tier == serve::ServeConfig::Tier::kInt8
                          ? std::make_shared<const ml::QuantizedModel>(
                                m, ml::QuantizedModel::Mode::kInt8)
                          : m);
  const std::size_t n = s.handles.size();
  std::vector<core::OnlineDetector::State> states(n);
  const std::size_t blocks = std::min<std::size_t>(n, 4 * collect_jobs());
  parallel_for(&pool, blocks, [&](std::size_t b) {
    const std::size_t lo = b * n / blocks, hi = (b + 1) * n / blocks;
    // apply_probability never consults the detector's own model.
    std::vector<core::OnlineDetector> detectors;
    for (std::size_t st = lo; st < hi; ++st) detectors.emplace_back(*scorers[0]);
    std::vector<double> flat((hi - lo) * kWindow), dist((hi - lo) * 2);
    std::size_t epoch = 0;
    for (std::size_t j = 0; j < s.sent; ++j) {
      while (epoch + 1 < s.epochs.size() && s.epochs[epoch + 1].first_window <= j) ++epoch;
      for (std::size_t st = lo; st < hi; ++st) {
        const auto w = s.window(st, j);
        std::copy(w.begin(), w.end(), flat.begin() + static_cast<std::ptrdiff_t>((st - lo) * kWindow));
      }
      scorers[s.epochs[epoch].model]->distribution_batch(flat, kWindow, dist);
      for (std::size_t st = lo; st < hi; ++st)
        detectors[st - lo].apply_probability(dist[(st - lo) * 2 + 1]);
    }
    for (std::size_t st = lo; st < hi; ++st) states[st] = detectors[st - lo].state();
  });
  return states;
}

bool same_state(const core::OnlineDetector::State& a, const core::OnlineDetector::State& b) {
  return a.windows == b.windows && a.flagged == b.flagged && a.streak == b.streak &&
         a.alarmed == b.alarmed && a.alarm_window == b.alarm_window;
}

/// Per-window cost of distribution_batch on the served scorer at the
/// engine's mean batch size, called directly.
double score_us_per_window(const Setup& s, const ServeSpec& spec, std::size_t batch) {
  std::shared_ptr<const ml::Classifier> scorer = s.models[0];
  if (spec.tier == serve::ServeConfig::Tier::kInt8)
    scorer = std::make_shared<const ml::QuantizedModel>(scorer, ml::QuantizedModel::Mode::kInt8);
  batch = std::clamp<std::size_t>(batch, 1, s.handles.size());
  std::vector<double> flat(batch * kWindow), dist(batch * 2);
  for (std::size_t k = 0; k < batch; ++k) {
    const auto w = s.window(k, k);
    std::copy(w.begin(), w.end(), flat.begin() + static_cast<std::ptrdiff_t>(k * kWindow));
  }
  std::size_t windows = 0;
  Span span("ml.distribution_batch", "probe");
  const double t0 = wall_seconds();
  while (wall_seconds() - t0 < 0.3) {
    scorer->distribution_batch(flat, kWindow, dist);
    windows += batch;
  }
  return span.stop() * 1e6 / static_cast<double>(windows);
}

void run_serve(const ServeSpec& spec, const RunOptions& opt, Report& report) {
  const auto n_ticks = static_cast<std::size_t>(std::llround(opt.seconds * 1000.0 / kPeriodMs));
  report.param("streams", static_cast<double>(spec.streams));
  report.param("windows_per_s_per_stream", 1000.0 / kPeriodMs);
  report.param("offered_windows_per_s", static_cast<double>(spec.streams) * 1000.0 / kPeriodMs);
  report.param("shards", static_cast<double>(kShards));
  report.param("tier", json_string(serve::to_string(spec.tier)));
  report.param("paced_ticks", static_cast<double>(n_ticks));
  report.param("swap_every_ticks", static_cast<double>(spec.swap_every));
  report.param("burst_windows_per_stream", static_cast<double>(spec.burst_windows));
  report.param("dataset_scale", spec.scale);

  const std::size_t jobs = collect_jobs();
  ThreadPool pool(jobs - 1);
  const CpuSplit cpus;
  report.param("generator_on_own_cpu", cpus.active() ? "true" : "false");

  // Set-up runs several times; setup_s is the median, the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (std::size_t a = 0; a < kSetups; ++a) {
    s.reset();
    const double t0 = wall_seconds();
    s = set_up(spec, opt, pool, cpus, a);
    setup_s.push_back(wall_seconds() - t0);
  }
  report.gate("dataset_rows", s->collected.rows_ok,
              std::to_string(s->collected.data.num_instances()) + " rows");

  PacedResult untraced;
  if (opt.trace) {
    // The end-to-end reference for the tracing overhead, then the traced
    // phase every per-layer number comes from.
    untraced = run_paced(*s, spec, n_ticks, 0);
    tracer().set_enabled(true);
  }
  PacedResult paced = run_paced(*s, spec, n_ticks, opt.trace ? n_ticks : 0);
  const std::vector<double> sat = run_saturation(*s, spec, cpus);

  double idle_cpu_ms_per_s = 0.0;
  if (opt.trace) {
    const double cpu0 = process_cpu_seconds(), t0 = wall_seconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    idle_cpu_ms_per_s = (process_cpu_seconds() - cpu0) * 1e3 / (wall_seconds() - t0);
  }

  // Correctness: windows scored == windows ingested, and every stream's
  // detector state equals the serial replay.
  std::uint64_t scored = 0;
  std::size_t correct_windows = 0;
  std::vector<core::OnlineDetector::State> engine_states;
  for (std::size_t st = 0; st < s->handles.size(); ++st) {
    const core::OnlineDetector::State state = s->engine->monitor(s->handles[st]).state();
    scored += state.windows;
    correct_windows += s->malware[st] ? state.flagged : state.windows - state.flagged;
    engine_states.push_back(state);
  }
  const std::uint64_t offered = s->sent * s->handles.size();
  report.count_attempt(offered);
  report.count_failure(offered - std::min(offered, scored));
  report.gate("windows_scored_eq_ingested",
              scored == offered && s->engine->total_ingested() == offered,
              std::to_string(scored) + " scored, " + std::to_string(offered) + " offered");
  const std::size_t failed_ticks = paced.ticks.failures() + untraced.ticks.failures();
  report.gate("no_failed_ticks", failed_ticks == 0,
              std::to_string(failed_ticks) + " ticks raised in drain()");
  const auto replay = serial_replay(*s, spec, pool);
  std::size_t mismatched = 0;
  for (std::size_t st = 0; st < replay.size(); ++st)
    if (!same_state(replay[st], engine_states[st])) ++mismatched;
  report.gate("serial_replay_equal", mismatched == 0,
              std::to_string(mismatched) + " of " + std::to_string(replay.size()) +
                  " streams differ from the serial replay");

  const Summary tick = summarize(paced.ticks.latency_ms());
  const Summary late = summarize(paced.ticks.lateness_ms());
  const Summary wait = summarize(paced.drain_wait_ms);
  report.timing("tick_latency", "ms", tick);
  report.timing("generator_lateness", "ms", late);
  report.timing("serve.drain_wait", "ms", wait);
  if (!paced.swap_tick_ms.empty()) report.timing("serve.swap_tick", "ms", summarize(paced.swap_tick_ms));
  if (!paced.publish_us.empty()) report.timing("serve.publish", "us", summarize(paced.publish_us));
  report.param("generator_lateness_p50_ms", late.median);
  report.param("generator_lateness_max_ms",
               *std::max_element(paced.ticks.lateness_ms().begin(), paced.ticks.lateness_ms().end()));

  const double sat_rate = quantile(sat, 0.5);
  const double cpu_us = paced.cpu_s * 1e6 / static_cast<double>(paced.windows);
  const double deadline_miss_pct =
      100.0 * static_cast<double>(paced.ticks.deadline_misses()) / static_cast<double>(n_ticks);
  const double accuracy = 100.0 * static_cast<double>(correct_windows) / static_cast<double>(scored);

  report.add(Kind::kEndToEnd, "setup_s", "s", quantile(setup_s, 0.5));
  report.add(Kind::kEndToEnd, "peak_rss_mb", "MB", peak_rss_mb());
  report.add(Kind::kEndToEnd, "windows_per_s", "1/s", sat_rate);
  report.add(Kind::kEndToEnd, "cpu_us_per_window", "us", cpu_us);
  report.add(Kind::kDetail, "accuracy_pct", "%", accuracy);
  // The same numbers under the names a serving reader looks for.
  report.add(Kind::kDetail, "sat_windows_per_s", "1/s", sat_rate);
  report.add(Kind::kDetail, "tick_p50_ms", "ms", tick.median);
  report.add(Kind::kDetail, "tick_p90_ms", "ms", quantile(paced.ticks.latency_ms(), 0.90));
  report.add(Kind::kDetail, "tick_p95_ms", "ms", quantile(paced.ticks.latency_ms(), 0.95));
  if (tick.tail_percentile >= 99.0)
    report.add(Kind::kDetail, "tick_p99_ms", "ms", quantile(paced.ticks.latency_ms(), 0.99));
  report.add(Kind::kDetail, "deadline_miss_pct", "%", deadline_miss_pct);

  const double batch_mean = paced.counters.batches == 0
                                ? 0.0
                                : paced.counters.batch_windows /
                                      static_cast<double>(paced.counters.batches);
  report.add(Kind::kLayer, "ml.train_ms", "ms", s->train_ms);
  if (opt.trace) {
    report.add(Kind::kLayer, "ml.score_us_per_window", "us",
               score_us_per_window(*s, spec, static_cast<std::size_t>(std::lround(batch_mean))));
    add_collection_layers(report, pipeline_config(opt.seed, spec.scale, kSampleWindows),
                          s->collected, jobs);
    const Summary untraced_tick = summarize(untraced.ticks.latency_ms());
    report.add(Kind::kLayer, "trace.overhead_pct", "%",
               100.0 * (tick.median - untraced_tick.median) / untraced_tick.median);
  }
  report.add(Kind::kDetail, "serve.ingest_ns_per_window", "ns",
             paced.ingest_s * 1e9 / static_cast<double>(paced.windows));
  report.add(Kind::kDetail, "serve.drain_wait_ms", "ms", wait.median);
  report.add(Kind::kDetail, "serve.batch_windows_mean", "count", batch_mean);
  report.add(Kind::kDetail, "serve.batches_per_tick", "count",
             static_cast<double>(paced.counters.batches) / static_cast<double>(n_ticks));
  report.add(Kind::kDetail, "serve.score_busy_pct", "%",
             100.0 * paced.counters.score_us / (paced.wall_s * 1e6 * kShards));
  if (opt.trace) report.add(Kind::kDetail, "serve.idle_cpu_ms_per_s", "ms/s", idle_cpu_ms_per_s);
  if (!paced.publish_us.empty()) {
    report.add(Kind::kDetail, "serve.publish_us", "us", quantile(paced.publish_us, 0.5));
    report.add(Kind::kDetail, "serve.swap_tick_ms", "ms", quantile(paced.swap_tick_ms, 0.5));
  }
  if (opt.trace) {
    // The serve-side state machine, called directly.
    core::OnlineDetector det(*s->models[0]);
    std::vector<double> probs(1 << 20);
    Rng rng(opt.seed);
    for (double& p : probs) p = rng.uniform();
    Span apply("core.apply_probability", "probe");
    for (const double p : probs) det.apply_probability(p);
    report.add(Kind::kDetail, "core.apply_ns_per_window", "ns",
               apply.stop() * 1e9 / static_cast<double>(probs.size()));
    if (spec.tier == serve::ServeConfig::Tier::kInt8) {
      std::vector<double> lower_ms;
      for (int k = 0; k < 21; ++k) {
        Span lower("ml.int8_lower", "probe " + std::to_string(k));
        const ml::QuantizedModel q(s->models[k % 2], ml::QuantizedModel::Mode::kInt8);
        lower_ms.push_back(lower.stop() * 1e3);
      }
      report.add(Kind::kDetail, "ml.int8_lower_ms", "ms", quantile(lower_ms, 0.5));
    }
  }
}

}  // namespace

void run_serve_knn(const RunOptions& options, Report& report) {
  run_serve({.tier = serve::ServeConfig::Tier::kFloat,
             .streams = 128,
             .swap_every = 0,
             .burst_windows = 800,
             .scale = 0.3},
            options, report);
}

void run_serve_fleet(const RunOptions& options, Report& report) {
  run_serve({.tier = serve::ServeConfig::Tier::kInt8,
             .streams = 2048,
             .swap_every = 100,
             .burst_windows = 600,
             .scale = 0.3},
            options, report);
}

}  // namespace perfbench
