#include "serve/stream_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <ostream>
#include <string>
#include <thread>

#include "hw/compile.hpp"
#include "hw/netlist_model.hpp"
#include "ml/dataset.hpp"
#include "ml/quantized.hpp"
#include "ml/registry.hpp"
#include "serve/spsc_ring.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace hmd::serve {

namespace {

/// One enqueued window: ingest timestamp (for the e2e latency histogram —
/// metrics only, never results) plus the counter values inline, so a ring
/// slot needs no heap indirection.
struct WindowSample {
  std::uint64_t ingest_us = 0;
  std::array<double, kMaxWindowWidth> counts{};
};

/// How long a shard worker sleeps when parked with nothing to do. Bounds
/// the staleness of any lost wakeup race to one timeout.
constexpr auto kParkTimeout = std::chrono::microseconds(200);

/// Single-epoch hub for the static-model constructor.
std::shared_ptr<ModelHub> hub_for(const ml::Classifier& model) {
  auto hub = std::make_shared<ModelHub>();
  hub->publish_unowned(model);
  return hub;
}

}  // namespace

Result<void> ServeConfig::try_validate() const {
  if (num_shards < 1)
    return ErrorInfo(ErrCode::kPrecondition,
                     "ServeConfig.num_shards: must be >= 1");
  if (window_size < 1 || window_size > kMaxWindowWidth)
    return ErrorInfo(ErrCode::kPrecondition,
                     "ServeConfig.window_size: must be in [1, 16]");
  if (ring_capacity < 2)
    return ErrorInfo(ErrCode::kPrecondition,
                     "ServeConfig.ring_capacity: must be >= 2");
  if (max_batch_windows < 1)
    return ErrorInfo(ErrCode::kPrecondition,
                     "ServeConfig.max_batch_windows: must be >= 1");
  if (Result<void> r = policy.try_validate(); !r)
    return std::move(r).with_context("ServeConfig");
  if (Result<void> r = resilience.try_validate(); !r)
    return std::move(r).with_context("ServeConfig");
  if (drift.enabled)
    if (Result<void> r = drift.try_validate(); !r)
      return std::move(r).with_context("ServeConfig");
  if (Result<void> r = ensemble.try_validate(); !r)
    return std::move(r).with_context("ServeConfig");
  if (tier != Tier::kFloat && ensemble.kind != EnsembleConfig::Kind::kSingle)
    return ErrorInfo(
        ErrCode::kPrecondition,
        std::string("ServeConfig.tier: the ") + to_string(tier) +
            " tier requires ensemble.kind = single (ensemble members vote "
            "on float scores)");
  return {};
}

const char* to_string(ServeConfig::Tier tier) {
  switch (tier) {
    case ServeConfig::Tier::kFloat: return "float";
    case ServeConfig::Tier::kInt8: return "int8";
    case ServeConfig::Tier::kQ16: return "q16";
    case ServeConfig::Tier::kFpga: return "fpga";
  }
  return "float";
}

std::optional<ServeConfig::Tier> tier_from_name(const std::string& name) {
  if (name == "float") return ServeConfig::Tier::kFloat;
  if (name == "int8") return ServeConfig::Tier::kInt8;
  if (name == "q16") return ServeConfig::Tier::kQ16;
  if (name == "fpga") return ServeConfig::Tier::kFpga;
  return std::nullopt;
}

StreamRouter::StreamRouter(std::size_t num_shards)
    : num_shards_(num_shards) {
  HMD_REQUIRE(num_shards_ >= 1, "StreamRouter: need at least one shard");
}

std::size_t StreamRouter::shard_of(std::uint64_t stream_id) const {
  // splitmix64 scrambles sequential ids (0, 1, 2, ...) into an even
  // spread; identical ids always land on the same shard.
  std::uint64_t x = stream_id;
  return static_cast<std::size_t>(splitmix64(x) % num_shards_);
}

/// Per-stream serving state. The ring is SPSC (the stream's feeder in,
/// the owning shard worker out); the monitor and logs are written only by
/// the shard worker under the shard's apply mutex (snapshot() takes the
/// same mutex) and read by callers after drain().
struct StreamEngine::Stream {
  Stream(StreamId stream_id, std::size_t shard_index,
         std::size_t ring_capacity,
         std::shared_ptr<const ml::Classifier> model,
         const core::OnlineDetectorConfig& policy)
      : id(stream_id),
        shard(shard_index),
        ring(ring_capacity),
        monitor_model(std::move(model)),
        monitor(*monitor_model, policy) {}

  const StreamId id;
  const std::size_t shard;
  SpscRing<WindowSample> ring;
  /// Pins the registration epoch's primary: the monitor holds a reference
  /// to it for its whole lifetime, across hot-swaps. The engine never
  /// calls monitor.observe() — batches are scored through the current
  /// epoch and fed in via apply_probability — so the pinned model is a
  /// lifetime anchor, not a scoring path.
  std::shared_ptr<const ml::Classifier> monitor_model;
  core::OnlineDetector monitor;
  std::vector<Verdict> verdict_log;        ///< only when record_verdicts
  std::vector<std::uint64_t> version_log;  ///< parallel to verdict_log
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> evicted{0};
  std::atomic<std::uint64_t> high_water{0};  ///< peak pending ring depth

  // Benign window log for drift retraining (drift.retrain only): a flat
  // row-major ring of the last window_log_capacity UNFLAGGED windows.
  // Written only by the owning shard worker under its apply mutex;
  // harvest_window_log reads under the same locks.
  std::vector<double> window_log;
  std::size_t window_log_next = 0;      ///< next ring slot to overwrite
  std::uint64_t window_log_total = 0;   ///< lifetime rows appended
};

/// Per-shard worker state. `produced`/`consumed` converge once producers
/// quiesce; drain() waits on exactly that. The worker publishes scored
/// state with a release fetch_add on `consumed`, which drain()'s acquire
/// load synchronizes with (fetch_add chains preserve the release
/// sequence), so post-drain reads of monitors and verdict logs are safe.
struct StreamEngine::Shard {
  std::size_t index = 0;

  // Stream membership: registration appends under `reg_mutex` and bumps
  // `generation`; the worker refreshes its private snapshot when the
  // generation moves, so the gather loop runs lock-free.
  std::mutex reg_mutex;
  std::vector<Stream*> registered;
  std::atomic<std::uint64_t> generation{0};

  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};

  // Parking: the worker naps when every ring is empty; ingest rings the
  // doorbell only when `parked` is set, keeping the hot path wait-free.
  std::mutex park_mutex;
  std::condition_variable park_cv;
  std::atomic<bool> parked{false};

  // Resilience state. The worker thread owns everything here except
  // `apply_mutex` (shared with snapshot()) and `degraded` (read by
  // shard_degraded() and tests).
  std::mutex apply_mutex;  ///< held around monitor updates per batch
  std::uint64_t batch_ordinal = 0;       ///< fault-injection key
  std::uint64_t last_epoch_version = 0;  ///< for swap detection

  // Quantized tiers (ServeConfig::Tier::kInt8 / kQ16 / kFpga): the
  // quantized or netlist-compiled lowering of the current primary, cached
  // per shard and re-derived after every hot-swap (keyed by epoch
  // version). Null when the primary has no lowering for the configured
  // tier.
  std::uint64_t quant_version = 0;
  std::shared_ptr<const ml::Classifier> quant_model;

  // Drift detection (config.drift.enabled only). Owned by the worker
  // under apply_mutex; snapshot() reads under the same lock.
  std::unique_ptr<ShardDriftDetector> drift;
  std::uint64_t drift_last_version = 0;  ///< drift-side swap detection
  std::size_t consecutive_failures = 0;  ///< batches that exhausted retries
  std::size_t budget_overruns = 0;       ///< consecutive over-budget batches
  std::uint64_t degraded_batches = 0;    ///< probe cadence counter
  std::atomic<bool> degraded{false};

  std::thread worker;
  std::string span_name;  ///< "serve/shard<k>/batch"

  // Registry-owned instruments (resolved once in the engine constructor).
  Counter* ingest_total = nullptr;
  Counter* dropped = nullptr;
  Counter* batches = nullptr;
  Histogram* batch_size = nullptr;
  Gauge* queue_depth = nullptr;
  Histogram* score_us = nullptr;
  Histogram* e2e_us = nullptr;
  // Engine-wide aggregates shared by all shards.
  Counter* agg_ingest_total = nullptr;
  Counter* agg_dropped = nullptr;
  Histogram* agg_batch_size = nullptr;
  Histogram* agg_score_us = nullptr;
  Histogram* agg_e2e_us = nullptr;
};

/// One gathered cross-stream batch (worker-local buffers, reused).
struct StreamEngine::Batch {
  struct Item {
    Stream* stream;
    std::uint64_t ingest_us;
  };
  std::vector<Item> items;
  std::vector<double> flat;
  std::vector<double> dist;
  // Policy-scored batches only (config.ensemble non-single): window
  // identities for member selection, the scoring member's version per
  // window, and the policy's reusable buffers.
  std::vector<ScoringPolicy::WindowKey> keys;
  std::vector<std::uint64_t> versions;
  ScoringPolicy::Scratch policy_scratch;
};

/// The serve.resilience.* family, resolved once in the constructor so
/// every instrument appears in metrics exports even while still zero.
struct StreamEngine::ResilienceInstruments {
  Counter& retries;
  Counter& score_failures;
  Counter& fallback_batches;
  Counter& degrade_events;
  Counter& recoveries;
  Counter& budget_overruns;
  Counter& swaps_observed;
  Counter& errors_swallowed;
  Counter& checkpoints;
  Counter& restored_streams;
  Gauge& degraded_shards;
  Gauge& model_version;
};

/// The serve.policy.* family (resolved only for non-single ensembles).
struct StreamEngine::PolicyInstruments {
  Counter& windows;
  Counter& disagreements;
  Gauge& members;
  std::vector<Counter*> member_windows;  ///< serve.policy.member<k>.windows
};

/// The serve.drift.* family (resolved only when config.drift.enabled).
struct StreamEngine::DriftInstruments {
  Counter& scores;
  Counter& trips;
  Counter& trips_page_hinkley;
  Counter& trips_ks;
  Counter& suppressed;
  Counter& retrains_started;
  Counter& retrains_completed;
  Counter& retrains_failed;
  Counter& retrains_skipped;
  Counter& swaps_published;
  Gauge& window_log_rows;
};

StreamEngine::StreamEngine(const ml::Classifier& model, ServeConfig config)
    : StreamEngine(hub_for(model), std::move(config)) {}

StreamEngine::StreamEngine(std::shared_ptr<ModelHub> hub, ServeConfig config)
    : hub_(std::move(hub)),
      config_(std::move(config)),
      router_(config_.num_shards) {
  HMD_REQUIRE(hub_ != nullptr, "StreamEngine: null model hub");
  config_.validate();
  HMD_REQUIRE(hub_->version() != 0,
              "StreamEngine: hub must have a published epoch");
  if (config_.restore_from != nullptr)
    restore_claimed_.assign(config_.restore_from->streams.size(), false);

  MetricsRegistry& reg = metrics();
  Counter& agg_ingest = reg.counter("serve.ingest_total");
  Counter& agg_dropped = reg.counter("serve.dropped");
  Histogram& agg_batch =
      reg.histogram("serve.batch_size", default_count_buckets());
  Histogram& agg_score =
      reg.histogram("serve.score_us", default_latency_buckets_us());
  Histogram& agg_e2e =
      reg.histogram("serve.e2e_latency_us", default_latency_buckets_us());

  res_ = std::make_unique<ResilienceInstruments>(ResilienceInstruments{
      reg.counter("serve.resilience.retries"),
      reg.counter("serve.resilience.score_failures"),
      reg.counter("serve.resilience.fallback_batches"),
      reg.counter("serve.resilience.degrade_events"),
      reg.counter("serve.resilience.recoveries"),
      reg.counter("serve.resilience.budget_overruns"),
      reg.counter("serve.resilience.swaps_observed"),
      reg.counter("serve.resilience.errors_swallowed"),
      reg.counter("serve.resilience.checkpoints"),
      reg.counter("serve.resilience.restored_streams"),
      reg.gauge("serve.resilience.degraded_shards"),
      reg.gauge("serve.resilience.model_version")});
  res_->model_version.set(static_cast<double>(hub_->version()));

  if (config_.drift.enabled)
    drift_ins_ = std::make_unique<DriftInstruments>(DriftInstruments{
        reg.counter("serve.drift.scores"),
        reg.counter("serve.drift.trips"),
        reg.counter("serve.drift.trips_page_hinkley"),
        reg.counter("serve.drift.trips_ks"),
        reg.counter("serve.drift.suppressed"),
        reg.counter("serve.drift.retrains_started"),
        reg.counter("serve.drift.retrains_completed"),
        reg.counter("serve.drift.retrains_failed"),
        reg.counter("serve.drift.retrains_skipped"),
        reg.counter("serve.drift.swaps_published"),
        reg.gauge("serve.drift.window_log_rows")});

  if (config_.ensemble.kind != EnsembleConfig::Kind::kSingle) {
    policy_ = std::make_unique<ScoringPolicy>(config_.ensemble);
    policy_ins_ = std::make_unique<PolicyInstruments>(PolicyInstruments{
        reg.counter("serve.policy.windows"),
        reg.counter("serve.policy.disagreements"),
        reg.gauge("serve.policy.members"),
        {}});
    policy_ins_->member_windows.reserve(policy_->total_members());
    for (std::size_t m = 0; m < policy_->total_members(); ++m)
      policy_ins_->member_windows.push_back(
          &reg.counter(format("serve.policy.member%zu.windows", m)));
    policy_ins_->members.set(static_cast<double>(policy_->total_members()));
  }
  if (config_.restore_from != nullptr &&
      config_.restore_from->policy.present) {
    // The stochastic selection sequence is keyed by (seed, stream, window
    // ordinal); the ordinals resume through the restored detector states,
    // so the only way to continue a checkpointed verdict stream correctly
    // is under the SAME policy. Refuse mismatched restores.
    const PolicySnapshot& snap = config_.restore_from->policy;
    HMD_REQUIRE(policy_ != nullptr,
                "ServeConfig.ensemble.kind: snapshot was written by a '" +
                    snap.kind + "' policy engine, config is 'single'");
    HMD_REQUIRE(snap.kind == to_string(config_.ensemble.kind),
                "ServeConfig.ensemble.kind: snapshot policy kind '" +
                    snap.kind + "' != configured '" +
                    to_string(config_.ensemble.kind) + "'");
    HMD_REQUIRE(snap.seed == config_.ensemble.seed,
                "ServeConfig.ensemble.seed: does not match the snapshot's "
                "policy seed");
    HMD_REQUIRE(snap.members == config_.ensemble.total_members(),
                "ServeConfig.ensemble.members: snapshot pinned " +
                    std::to_string(snap.members) + " members, config has " +
                    std::to_string(config_.ensemble.total_members()));
  }
  if (config_.restore_from != nullptr && config_.restore_from->tier.present) {
    // A checkpointed verdict stream is only continued correctly when the
    // remaining traffic is scored the way it was scored before the cut:
    // restoring under a different precision tier would silently change
    // every score after the restore point. Refuse mismatched restores.
    const TierSnapshot& snap = config_.restore_from->tier;
    HMD_REQUIRE(tier_from_name(snap.name).has_value(),
                "ServeConfig.restore_from: snapshot pins unknown serving "
                "tier '" + snap.name + "' (known: float int8 q16 fpga)");
    HMD_REQUIRE(snap.name == to_string(config_.tier),
                "ServeConfig.tier: snapshot was written by a '" + snap.name +
                    "' tier engine, config is '" + to_string(config_.tier) +
                    "'");
  }

  shards_.reserve(config_.num_shards);
  for (std::size_t k = 0; k < config_.num_shards; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->index = k;
    const std::string suffix = ".shard" + std::to_string(k);
    shard->span_name = "serve/shard" + std::to_string(k) + "/batch";
    shard->ingest_total = &reg.counter("serve.ingest_total" + suffix);
    shard->dropped = &reg.counter("serve.dropped" + suffix);
    shard->batches = &reg.counter("serve.batches" + suffix);
    shard->batch_size = &reg.histogram("serve.batch_size" + suffix,
                                       default_count_buckets());
    shard->queue_depth = &reg.gauge("serve.queue_depth" + suffix);
    shard->score_us = &reg.histogram("serve.score_us" + suffix,
                                     default_latency_buckets_us());
    shard->e2e_us = &reg.histogram("serve.e2e_latency_us" + suffix,
                                   default_latency_buckets_us());
    shard->agg_ingest_total = &agg_ingest;
    shard->agg_dropped = &agg_dropped;
    shard->agg_batch_size = &agg_batch;
    shard->agg_score_us = &agg_score;
    shard->agg_e2e_us = &agg_e2e;
    if (config_.drift.enabled) {
      shard->drift = std::make_unique<ShardDriftDetector>(config_.drift, k);
      // Resume the drift baseline from the checkpoint (if it carries one
      // for this shard index) so a restored engine does not re-warm — or
      // spuriously re-trip — on the traffic it already saw.
      if (config_.restore_from != nullptr)
        for (const DriftShardSnapshot& d : config_.restore_from->drift)
          if (d.shard == k) {
            shard->drift->restore(d.state);
            break;
          }
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_)
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
}

StreamEngine::~StreamEngine() {
  join_workers();
  // A latched error nobody has seen must not vanish with the engine:
  // count it and put it on the timeline so post-mortems can find it.
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (first_error_.has_value() && !error_reported_) {
    res_->errors_swallowed.add();
    if (tracer().enabled())
      tracer().record({"serve/error_swallowed: " + first_error_->to_string(),
                       Tracer::current_thread_id(), Tracer::now_us(), 0});
  }
}

std::size_t StreamEngine::num_streams() const {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  return streams_.size();
}

StreamEngine::StreamHandle StreamEngine::register_stream(StreamId id) {
  auto epoch = hub_->current();
  auto stream =
      std::make_unique<Stream>(id, router_.shard_of(id), config_.ring_capacity,
                               epoch->primary, config_.policy);
  Stream* handle = stream.get();
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    if (config_.restore_from != nullptr) {
      // Resume from the checkpoint before the stream becomes visible to
      // its shard; duplicate ids claim snapshot entries first-come.
      const auto& snaps = config_.restore_from->streams;
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        if (restore_claimed_[i] || snaps[i].id != id) continue;
        handle->monitor.restore(snaps[i].detector);
        handle->accepted.store(snaps[i].accepted, std::memory_order_relaxed);
        handle->evicted.store(snaps[i].evicted, std::memory_order_relaxed);
        handle->high_water.store(snaps[i].high_water,
                                 std::memory_order_relaxed);
        restore_claimed_[i] = true;
        res_->restored_streams.add();
        break;
      }
    }
    streams_.push_back(std::move(stream));
  }
  Shard& shard = *shards_[handle->shard];
  {
    std::lock_guard<std::mutex> lock(shard.reg_mutex);
    shard.registered.push_back(handle);
  }
  shard.generation.fetch_add(1, std::memory_order_release);
  return handle;
}

bool StreamEngine::ingest(StreamHandle stream,
                          std::span<const double> window) {
  HMD_REQUIRE(stream != nullptr, "StreamEngine::ingest: null stream");
  HMD_REQUIRE(window.size() == config_.window_size,
              "StreamEngine::ingest: window width != config window_size");

  WindowSample sample;
  sample.ingest_us = Tracer::now_us();
  std::copy(window.begin(), window.end(), sample.counts.begin());

  Shard& shard = *shards_[stream->shard];
  bool dropped_one = false;
  while (!stream->ring.try_push(sample)) {
    if (config_.backpressure == ServeConfig::Backpressure::kDropOldest) {
      if (stream->ring.pop_discard()) {
        dropped_one = true;
        stream->evicted.fetch_add(1, std::memory_order_relaxed);
        shard.dropped->add();
        shard.agg_dropped->add();
        // The evicted window was counted into `produced`; account it as
        // consumed so drain() still converges.
        shard.consumed.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      // kBlock: the worker is guaranteed to make space; just get out of
      // its way (and make sure it is not parked on a full ring, which
      // can happen if it parked between our push attempts).
      unpark(shard);
      std::this_thread::yield();
    }
  }
  stream->accepted.fetch_add(1, std::memory_order_relaxed);
  // Ring high-water mark (capacity planning; persisted in snapshots).
  const auto depth =
      static_cast<std::uint64_t>(stream->ring.size_approx());
  std::uint64_t seen = stream->high_water.load(std::memory_order_relaxed);
  while (depth > seen && !stream->high_water.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
  shard.produced.fetch_add(1, std::memory_order_relaxed);
  shard.ingest_total->add();
  shard.agg_ingest_total->add();
  if (shard.parked.load(std::memory_order_seq_cst)) unpark(shard);
  return !dropped_one;
}

void StreamEngine::unpark(Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.park_mutex);
  shard.park_cv.notify_one();
}

void StreamEngine::enter_degraded(Shard& shard, const char* reason) {
  shard.degraded.store(true, std::memory_order_release);
  shard.degraded_batches = 0;
  shard.budget_overruns = 0;
  res_->degrade_events.add();
  res_->degraded_shards.set(static_cast<double>(
      degraded_count_.fetch_add(1, std::memory_order_relaxed) + 1));
  if (tracer().enabled())
    tracer().record({"serve/shard" + std::to_string(shard.index) +
                         "/degrade:" + reason,
                     Tracer::current_thread_id(), Tracer::now_us(), 0});
}

void StreamEngine::leave_degraded(Shard& shard) {
  shard.degraded.store(false, std::memory_order_release);
  shard.consecutive_failures = 0;
  shard.budget_overruns = 0;
  shard.degraded_batches = 0;
  res_->recoveries.add();
  res_->degraded_shards.set(static_cast<double>(
      degraded_count_.fetch_sub(1, std::memory_order_relaxed) - 1));
  if (tracer().enabled())
    tracer().record({"serve/shard" + std::to_string(shard.index) + "/recover",
                     Tracer::current_thread_id(), Tracer::now_us(), 0});
}

void StreamEngine::latch_error(ErrorInfo error) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!first_error_.has_value()) first_error_.emplace(std::move(error));
  failed_.store(true, std::memory_order_release);
}

bool StreamEngine::score_batch(Shard& shard, Batch& batch) {
  const std::size_t n = batch.items.size();
  const std::size_t width = config_.window_size;
  const ResilienceConfig& res = config_.resilience;
  FaultInjector* faults = res.faults.get();

  // Pin the epoch for the whole batch: a concurrent publish cannot pull
  // the models out from under us, and every verdict below is stamped
  // with this version.
  const std::shared_ptr<const ModelHub::Epoch> epoch = hub_->current();
  const std::uint64_t ordinal = shard.batch_ordinal++;
  if (epoch->version != shard.last_epoch_version) {
    if (shard.last_epoch_version != 0) res_->swaps_observed.add();
    shard.last_epoch_version = epoch->version;
    res_->model_version.set(static_cast<double>(epoch->version));
  }
  const bool have_fallback = epoch->fallback != nullptr;

  // Quantized tiers: swap the batch's primary for its cached quantized
  // lowering (re-derived once per hot-swap). Policies and fallback scoring
  // stay on the float path; a primary without a lowering for the
  // configured tier does too.
  const ml::Classifier* primary = epoch->primary.get();
  if (config_.tier != ServeConfig::Tier::kFloat && policy_ == nullptr) {
    if (shard.quant_version != epoch->version) {
      shard.quant_version = epoch->version;
      shard.quant_model.reset();
      if (config_.tier == ServeConfig::Tier::kFpga) {
        // Compile the primary to the netlist IR and score through the
        // cycle-accurate simulator — the verdicts the emitted RTL would
        // produce. Model-derived grid calibration keeps the compile a
        // pure function of the model, so every shard builds the identical
        // design regardless of shard count.
        hw::CompileOptions opts;
        opts.num_features = config_.window_size;
        Result<hw::CompiledDesign> design =
            hw::try_compile(*epoch->primary, std::move(opts));
        if (design.ok())
          shard.quant_model = std::make_shared<const hw::NetlistClassifier>(
              std::move(design).value());
      } else {
        const bool int8 = config_.tier == ServeConfig::Tier::kInt8;
        if (ml::QuantizedModel::int8_supported(*epoch->primary))
          shard.quant_model = std::make_shared<const ml::QuantizedModel>(
              epoch->primary, int8 ? ml::QuantizedModel::Mode::kInt8
                                   : ml::QuantizedModel::Mode::kQ16Input);
      }
    }
    if (shard.quant_model != nullptr) primary = shard.quant_model.get();
  }

  if (policy_ != nullptr) {
    // Window identities for member selection: each stream's windows sit
    // in one contiguous run of the gather order, so its ordinals are the
    // monitor's windows_seen() (this worker is the only writer) plus the
    // offset in the run. A failed batch never advances the monitors, so
    // dropped windows consume no ordinals and the selection sequence
    // stays a pure function of the scored traffic.
    batch.keys.resize(n);
    std::size_t w = 0;
    while (w < n) {
      Stream* stream = batch.items[w].stream;
      const auto base =
          static_cast<std::uint64_t>(stream->monitor.windows_seen());
      std::uint64_t offset = 0;
      while (w < n && batch.items[w].stream == stream) {
        batch.keys[w] = {stream->id, base + offset};
        ++offset;
        ++w;
      }
    }
  }

  std::optional<ErrorInfo> failure;
  auto attempt_score = [&](const ml::Classifier& model,
                           std::size_t attempt_no, bool inject,
                           bool via_policy) -> bool {
    try {
      if (inject && faults != nullptr)
        faults->on_score_attempt(shard.index, ordinal, attempt_no);
      batch.dist.assign(n * 2, 0.0);
      if (via_policy) {
        batch.versions.assign(n, 0);
        policy_->score(model, epoch->version, batch.flat, width, batch.keys,
                       batch.dist, batch.versions, batch.policy_scratch);
      } else {
        model.distribution_batch(batch.flat, width, batch.dist);
      }
      return true;
    } catch (...) {
      res_->score_failures.add();
      failure = ErrorInfo::from_current_exception();
      return false;
    }
  };

  TraceSpan span(shard.span_name);
  bool scored = false;
  bool by_primary = false;

  if (!shard.degraded.load(std::memory_order_relaxed)) {
    // Normal mode: primary with bounded retries and linear backoff.
    for (std::size_t a = 0; a <= res.max_retries && !scored; ++a) {
      if (a > 0) {
        res_->retries.add();
        if (res.retry_backoff_us > 0)
          std::this_thread::sleep_for(std::chrono::microseconds(
              res.retry_backoff_us * static_cast<std::uint64_t>(a)));
      }
      scored = attempt_score(*primary, a, true, policy_ != nullptr);
    }
    if (scored) {
      by_primary = true;
      shard.consecutive_failures = 0;
    } else {
      ++shard.consecutive_failures;
    }
  } else {
    // Degraded mode: fallback scores; every probe_every-th batch probes
    // the primary, and a single success recovers the shard.
    ++shard.degraded_batches;
    if (shard.degraded_batches % res.probe_every == 0 &&
        attempt_score(*primary, 0, true, policy_ != nullptr)) {
      scored = true;
      by_primary = true;
      leave_degraded(shard);
    }
  }

  if (!scored && have_fallback) {
    // Degraded scoring bypasses the ensemble: the fallback is the one
    // model known-good right now, and a policy whose members include the
    // failing primary would defeat the point of falling back.
    scored = attempt_score(*epoch->fallback, 0, false, false);
    if (scored) res_->fallback_batches.add();
  }

  const double score_us = span.elapsed_seconds() * 1e6;

  if (!scored) {
    // End of the ladder: no attempt succeeded and there is nowhere left
    // to fall. Latch; this batch's windows are dropped and subsequent
    // batches are drained unscored.
    HMD_ASSERT(failure.has_value());
    latch_error(std::move(*failure).with_context(
        "scoring batch on shard " + std::to_string(shard.index)));
    return false;
  }

  if (!shard.degraded.load(std::memory_order_relaxed)) {
    if (shard.consecutive_failures >= res.degrade_after && have_fallback) {
      enter_degraded(shard, "failures");
    } else if (by_primary && res.latency_budget_us > 0) {
      if (score_us > static_cast<double>(res.latency_budget_us)) {
        res_->budget_overruns.add();
        if (++shard.budget_overruns >= res.budget_strikes && have_fallback)
          enter_degraded(shard, "latency");
      } else {
        shard.budget_overruns = 0;
      }
    }
  }

  // True when this batch's distributions came from the scoring policy
  // (normal or probe path); fallback-scored batches carry the epoch
  // fallback's verdicts and version.
  const bool policy_scored = policy_ != nullptr && by_primary;

  // Serial per-stream replay of the streak/alarm machine, in gather
  // order — per stream this is exactly arrival order. Under the apply
  // mutex so snapshot() only ever sees monitors between batches.
  {
    std::lock_guard<std::mutex> apply_lock(shard.apply_mutex);
    const std::uint64_t now = Tracer::now_us();
    // Drift-side swap detection: a published retrain legitimately moves
    // the score distribution, so the detectors re-baseline rather than
    // tripping on their own medicine.
    if (shard.drift != nullptr &&
        epoch->version != shard.drift_last_version) {
      if (shard.drift_last_version != 0) shard.drift->on_model_swap();
      shard.drift_last_version = epoch->version;
    }
    const std::uint64_t suppressed_before =
        shard.drift != nullptr ? shard.drift->suppressed() : 0;
    for (std::size_t w = 0; w < n; ++w) {
      Stream& stream = *batch.items[w].stream;
      const double probability = batch.dist[w * 2 + 1];
      const Verdict verdict = stream.monitor.apply_probability(probability);
      if (config_.record_verdicts) {
        stream.verdict_log.push_back(verdict);
        // Under a policy the stamp is the member that actually scored the
        // window (majority verdicts carry the live primary's version);
        // drift detection below keeps keying off the epoch version, since
        // its swap re-baselining tracks hub publishes, not members.
        stream.version_log.push_back(policy_scored ? batch.versions[w]
                                                   : epoch->version);
      }
      if (shard.drift != nullptr) {
        if (const auto event =
                shard.drift->observe(probability, epoch->version))
          record_drift_event(*event);
        // Retrain data: windows the monitor did NOT flag are the stream's
        // benign-looking recent past — exactly what a one-class rebuild
        // should fit.
        if (config_.drift.retrain && !verdict.flagged) {
          const std::size_t cap = config_.drift.window_log_capacity;
          const std::size_t width_d = config_.window_size;
          if (stream.window_log.size() < cap * width_d)
            stream.window_log.resize(cap * width_d, 0.0);
          std::copy(batch.flat.begin() +
                        static_cast<std::ptrdiff_t>(w * width_d),
                    batch.flat.begin() +
                        static_cast<std::ptrdiff_t>((w + 1) * width_d),
                    stream.window_log.begin() +
                        static_cast<std::ptrdiff_t>(
                            stream.window_log_next * width_d));
          stream.window_log_next = (stream.window_log_next + 1) % cap;
          ++stream.window_log_total;
        }
      }
      const std::uint64_t e2e =
          now >= batch.items[w].ingest_us ? now - batch.items[w].ingest_us
                                          : 0;
      shard.e2e_us->record(static_cast<double>(e2e));
      shard.agg_e2e_us->record(static_cast<double>(e2e));
    }
    if (shard.drift != nullptr) {
      drift_ins_->scores.add(n);
      const std::uint64_t suppressed_now = shard.drift->suppressed();
      if (suppressed_now > suppressed_before)
        drift_ins_->suppressed.add(suppressed_now - suppressed_before);
    }
  }
  if (policy_scored) {
    const ScoringPolicy::Scratch& scratch = batch.policy_scratch;
    policy_ins_->windows.add(n);
    if (scratch.disagreements > 0)
      policy_ins_->disagreements.add(scratch.disagreements);
    for (std::size_t m = 0; m < scratch.member_windows.size(); ++m)
      if (scratch.member_windows[m] > 0)
        policy_ins_->member_windows[m]->add(scratch.member_windows[m]);
  }
  shard.batches->add();
  shard.batch_size->record(static_cast<double>(n));
  shard.agg_batch_size->record(static_cast<double>(n));
  shard.score_us->record(score_us);
  shard.agg_score_us->record(score_us);
  return true;
}

void StreamEngine::worker_loop(Shard& shard) {
  std::vector<Stream*> snapshot;
  std::uint64_t seen_generation = 0;

  Batch batch;
  const std::size_t width = config_.window_size;
  batch.items.reserve(config_.max_batch_windows);
  batch.flat.reserve(config_.max_batch_windows * width);

  for (;;) {
    if (shard.generation.load(std::memory_order_acquire) !=
        seen_generation) {
      std::lock_guard<std::mutex> lock(shard.reg_mutex);
      snapshot = shard.registered;
      seen_generation = shard.generation.load(std::memory_order_acquire);
    }

    // Gather: sweep this shard's streams in registration order, popping
    // every pending window (up to the batch cap) into one contiguous
    // row-major block. Within a stream, pops are FIFO, so per-stream
    // arrival order survives batching.
    batch.items.clear();
    batch.flat.clear();
    WindowSample sample;
    for (Stream* stream : snapshot) {
      while (batch.items.size() < config_.max_batch_windows &&
             stream->ring.try_pop(sample)) {
        batch.items.push_back({stream, sample.ingest_us});
        batch.flat.insert(
            batch.flat.end(), sample.counts.begin(),
            sample.counts.begin() + static_cast<std::ptrdiff_t>(width));
      }
      if (batch.items.size() >= config_.max_batch_windows) break;
    }

    if (!batch.items.empty()) {
      std::size_t backlog = 0;
      for (Stream* stream : snapshot) backlog += stream->ring.size_approx();
      shard.queue_depth->set(static_cast<double>(backlog));

      const std::size_t n = batch.items.size();
      // In the failed state windows are still drained (and discarded) so
      // drain() terminates and surfaces the stored error.
      if (!failed_.load(std::memory_order_relaxed))
        score_batch(shard, batch);
      shard.consumed.fetch_add(n, std::memory_order_release);
      continue;
    }

    if (stop_.load(std::memory_order_acquire)) break;

    // Park until new work (or a registration) arrives. The post-park
    // re-check closes the push-vs-park race; a lost doorbell costs at
    // most kParkTimeout.
    shard.parked.store(true, std::memory_order_seq_cst);
    bool work = shard.generation.load(std::memory_order_acquire) !=
                seen_generation;
    for (Stream* stream : snapshot)
      if (!stream->ring.empty_approx()) {
        work = true;
        break;
      }
    if (!work && !stop_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(shard.park_mutex);
      shard.park_cv.wait_for(lock, kParkTimeout);
    }
    shard.parked.store(false, std::memory_order_seq_cst);
  }
}

void StreamEngine::drain_internal() {
  for (auto& shard : shards_) {
    while (shard->produced.load(std::memory_order_acquire) !=
           shard->consumed.load(std::memory_order_acquire)) {
      unpark(*shard);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

void StreamEngine::rethrow_if_failed() {
  if (!failed_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (first_error_.has_value()) {
    error_reported_ = true;
    first_error_->raise();
  }
}

void StreamEngine::drain() {
  drain_internal();
  rethrow_if_failed();
}

void StreamEngine::join_workers() {
  if (joined_) return;
  drain_internal();
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) unpark(*shard);
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  join_retrain_thread();
  joined_ = true;
}

void StreamEngine::join_retrain_thread() {
  std::unique_lock<std::mutex> lock(drift_mutex_);
  retrain_cv_.wait(lock, [this] { return !retrain_running_; });
  // Safe to join while holding drift_mutex_: the worker's last lock use
  // is clearing retrain_running_, so once the predicate holds the thread
  // never reacquires it.
  if (retrain_thread_.joinable()) retrain_thread_.join();
}

void StreamEngine::record_drift_event(const DriftEvent& event) {
  // Caller holds the shard's apply mutex; apply → drift is the one legal
  // lock order (see the member-declaration comment).
  {
    std::lock_guard<std::mutex> lock(drift_mutex_);
    drift_events_.push_back(event);
  }
  drift_ins_->trips.add();
  if (event.detector == DriftEvent::Detector::kPageHinkley)
    drift_ins_->trips_page_hinkley.add();
  else
    drift_ins_->trips_ks.add();
  if (config_.drift.retrain)
    retrain_requested_.store(true, std::memory_order_release);
  if (tracer().enabled())
    tracer().record({"serve/drift/trip:" + to_string(event.detector) +
                         ":shard" + std::to_string(event.shard),
                     Tracer::current_thread_id(), Tracer::now_us(), 0});
}

std::vector<double> StreamEngine::harvest_window_log() const {
  // Quiesce every apply step, then walk streams in registration order and
  // copy each stream's ring oldest-first — the harvested block is a pure
  // function of the traffic (no thread-timing dependence), which is what
  // makes the retrain deterministic.
  std::vector<std::unique_lock<std::mutex>> apply_locks;
  apply_locks.reserve(shards_.size());
  for (const auto& shard : shards_)
    apply_locks.emplace_back(shard->apply_mutex);
  std::lock_guard<std::mutex> lock(streams_mutex_);

  const std::size_t width = config_.window_size;
  const std::size_t cap = config_.drift.window_log_capacity;
  std::vector<double> rows;
  for (const auto& stream : streams_) {
    const std::uint64_t total = stream->window_log_total;
    if (total == 0) continue;
    const std::size_t kept =
        static_cast<std::size_t>(std::min<std::uint64_t>(total, cap));
    const std::size_t start =
        total <= cap ? 0 : stream->window_log_next;  // oldest slot
    for (std::size_t r = 0; r < kept; ++r) {
      const std::size_t slot = (start + r) % cap;
      const auto* begin = stream->window_log.data() + slot * width;
      rows.insert(rows.end(), begin, begin + width);
    }
  }
  drift_ins_->window_log_rows.set(
      static_cast<double>(rows.size() / width));
  return rows;
}

void StreamEngine::retrain_worker(std::vector<double> rows) {
  TraceSpan span("serve/drift/retrain");
  std::shared_ptr<const ml::Classifier> trained;
  std::optional<ErrorInfo> failure;
  try {
    const std::size_t width = config_.window_size;
    std::size_t num_rows = rows.size() / width;

    // Over-budget logs are thinned with a seeded index shuffle; keeping
    // the survivors sorted preserves temporal order. Deterministic given
    // (log, retrain_seed) — reruns rebuild the identical model.
    if (num_rows > config_.drift.retrain_max_rows) {
      std::vector<std::size_t> keep(num_rows);
      for (std::size_t i = 0; i < num_rows; ++i) keep[i] = i;
      Rng rng(config_.drift.retrain_seed);
      rng.shuffle(keep);
      keep.resize(config_.drift.retrain_max_rows);
      std::sort(keep.begin(), keep.end());
      std::vector<double> thinned;
      thinned.reserve(keep.size() * width);
      for (const std::size_t r : keep) {
        const auto* begin = rows.data() + r * width;
        thinned.insert(thinned.end(), begin, begin + width);
      }
      rows = std::move(thinned);
      num_rows = keep.size();
    }

    // The window log is unlabeled benign-looking traffic: every row gets
    // class 0 of a binary schema, which is exactly what a one-class
    // scheme trains on (it ignores the malware class by construction).
    std::vector<ml::Attribute> attrs;
    attrs.reserve(width + 1);
    for (std::size_t f = 0; f < width; ++f)
      attrs.emplace_back(format("c%zu", f));
    attrs.emplace_back(
        ml::Attribute("class", {"benign", "malware"}));
    ml::Dataset data(std::move(attrs), "drift-retrain");
    std::vector<double> row(width + 1, 0.0);
    for (std::size_t r = 0; r < num_rows; ++r) {
      std::copy(rows.begin() + static_cast<std::ptrdiff_t>(r * width),
                rows.begin() + static_cast<std::ptrdiff_t>((r + 1) * width),
                row.begin());
      data.add_row(row);
    }

    auto model = ml::make_classifier(config_.drift.retrain_scheme);
    model->train(data);
    trained = std::move(model);
  } catch (...) {
    failure = ErrorInfo::from_current_exception().with_context(
        "drift retrain (" + config_.drift.retrain_scheme + ")");
  }

  std::lock_guard<std::mutex> lock(drift_mutex_);
  if (failure.has_value()) {
    retrain_error_ = std::move(failure);
    drift_ins_->retrains_failed.add();
  } else {
    staged_model_ = std::move(trained);
    retrain_error_.reset();
    drift_ins_->retrains_completed.add();
  }
  retrain_running_ = false;
  retrain_cv_.notify_all();
}

StreamEngine::DriftPumpResult StreamEngine::drift_pump() {
  DriftPumpResult result;
  if (!config_.drift.enabled) return result;

  // 1. Publish a staged model from a finished retrain. Publishing happens
  // only here (the caller's control point), never on the worker thread.
  std::shared_ptr<const ml::Classifier> staged;
  {
    std::lock_guard<std::mutex> lock(drift_mutex_);
    if (!retrain_running_ && staged_model_ != nullptr) {
      staged = std::move(staged_model_);
      if (retrain_thread_.joinable()) retrain_thread_.join();
    }
  }
  if (staged != nullptr) {
    const auto epoch = hub_->current();
    result.published_version = hub_->publish(staged, epoch->fallback);
    drift_ins_->swaps_published.add();
    if (tracer().enabled())
      tracer().record({"serve/drift/swap:v" +
                           std::to_string(result.published_version),
                       Tracer::current_thread_id(), Tracer::now_us(), 0});
  }

  // 2. Kick a pending retrain. The log is harvested before drift_mutex_
  // is taken (harvest takes every apply mutex; see the lock-order note).
  if (!config_.drift.retrain ||
      !retrain_requested_.load(std::memory_order_acquire))
    return result;
  std::vector<double> rows = harvest_window_log();
  std::lock_guard<std::mutex> lock(drift_mutex_);
  if (retrain_running_) return result;  // request stays set for next pump
  retrain_requested_.store(false, std::memory_order_release);
  if (rows.size() / config_.window_size < config_.drift.retrain_min_rows) {
    drift_ins_->retrains_skipped.add();
    return result;
  }
  if (retrain_thread_.joinable()) retrain_thread_.join();
  retrain_running_ = true;
  drift_ins_->retrains_started.add();
  retrain_thread_ = std::thread(
      [this, moved = std::move(rows)]() mutable {
        retrain_worker(std::move(moved));
      });
  result.retrain_started = true;
  return result;
}

std::uint64_t StreamEngine::await_retrain() {
  // Kick any pending request, wait out the worker, then pump again so
  // the freshly staged model is published before we return.
  drift_pump();
  {
    std::unique_lock<std::mutex> lock(drift_mutex_);
    retrain_cv_.wait(lock, [this] { return !retrain_running_; });
  }
  return drift_pump().published_version;
}

std::vector<DriftEvent> StreamEngine::drift_events() const {
  std::lock_guard<std::mutex> lock(drift_mutex_);
  return drift_events_;
}

std::optional<ErrorInfo> StreamEngine::last_retrain_error() const {
  std::lock_guard<std::mutex> lock(drift_mutex_);
  return retrain_error_;
}

void StreamEngine::shutdown() {
  join_workers();
  rethrow_if_failed();
}

std::optional<ErrorInfo> StreamEngine::last_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return first_error_;
}

EngineSnapshot StreamEngine::snapshot() const {
  HMD_TRACE_SPAN("serve/checkpoint");
  EngineSnapshot snap;
  snap.model_version = hub_->version();
  // Hold every shard's apply mutex: monitor state machines quiesce
  // between batches, so the captured states are a consistent cut even
  // while ingest and scoring are live.
  std::vector<std::unique_lock<std::mutex>> apply_locks;
  apply_locks.reserve(shards_.size());
  for (const auto& shard : shards_)
    apply_locks.emplace_back(shard->apply_mutex);
  std::lock_guard<std::mutex> lock(streams_mutex_);
  snap.streams.reserve(streams_.size());
  for (const auto& stream : streams_) {
    StreamSnapshot s;
    s.id = stream->id;
    s.accepted = stream->accepted.load(std::memory_order_relaxed);
    s.evicted = stream->evicted.load(std::memory_order_relaxed);
    s.high_water = stream->high_water.load(std::memory_order_relaxed);
    s.detector = stream->monitor.state();
    snap.streams.push_back(s);
  }
  // Drift baselines are part of the consistent cut: the apply locks held
  // above also quiesce every ShardDriftDetector.
  if (config_.drift.enabled) {
    snap.drift.reserve(shards_.size());
    for (const auto& shard : shards_) {
      DriftShardSnapshot d;
      d.shard = shard->index;
      d.state = shard->drift->state();
      snap.drift.push_back(std::move(d));
    }
  }
  if (policy_ != nullptr) {
    snap.policy.present = true;
    snap.policy.kind = to_string(config_.ensemble.kind);
    snap.policy.seed = config_.ensemble.seed;
    snap.policy.members = policy_->total_members();
  }
  // Always pinned (float included): the tier is part of the checkpoint's
  // identity — see TierSnapshot.
  snap.tier.present = true;
  snap.tier.name = to_string(config_.tier);
  res_->checkpoints.add();
  return snap;
}

void StreamEngine::checkpoint(std::ostream& out) const {
  snapshot().write(out);
}

bool StreamEngine::shard_degraded(std::size_t shard) const {
  HMD_REQUIRE(shard < shards_.size(),
              "StreamEngine::shard_degraded: shard out of range");
  return shards_[shard]->degraded.load(std::memory_order_acquire);
}

const core::OnlineDetector& StreamEngine::monitor(
    StreamHandle stream) const {
  HMD_REQUIRE(stream != nullptr, "StreamEngine::monitor: null stream");
  return stream->monitor;
}

const std::vector<StreamEngine::Verdict>& StreamEngine::verdicts(
    StreamHandle stream) const {
  HMD_REQUIRE(stream != nullptr, "StreamEngine::verdicts: null stream");
  return stream->verdict_log;
}

const std::vector<std::uint64_t>& StreamEngine::verdict_versions(
    StreamHandle stream) const {
  HMD_REQUIRE(stream != nullptr,
              "StreamEngine::verdict_versions: null stream");
  return stream->version_log;
}

std::uint64_t StreamEngine::dropped(StreamHandle stream) const {
  HMD_REQUIRE(stream != nullptr, "StreamEngine::dropped: null stream");
  return stream->evicted.load(std::memory_order_relaxed);
}

std::uint64_t StreamEngine::ingested(StreamHandle stream) const {
  HMD_REQUIRE(stream != nullptr, "StreamEngine::ingested: null stream");
  return stream->accepted.load(std::memory_order_relaxed);
}

std::uint64_t StreamEngine::high_water(StreamHandle stream) const {
  HMD_REQUIRE(stream != nullptr, "StreamEngine::high_water: null stream");
  return stream->high_water.load(std::memory_order_relaxed);
}

std::uint64_t StreamEngine::total_ingested() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(streams_mutex_);
  for (const auto& stream : streams_)
    total += stream->accepted.load(std::memory_order_relaxed);
  return total;
}

}  // namespace hmd::serve
