#include "core/pipeline_config.hpp"

#include "util/strings.hpp"

namespace hmd::core {

PipelineConfig PipelineConfig::paper() {
  PipelineConfig cfg;
  cfg.collector.num_windows = 16;
  cfg.collector.ops_per_window = 4000;
  return cfg;
}

PipelineConfig PipelineConfig::quick(double scale, std::size_t windows) {
  PipelineConfig cfg;
  cfg.composition = workload::DatabaseComposition::scaled(scale);
  cfg.collector.num_windows = windows;
  cfg.collector.ops_per_window = 3000;
  return cfg;
}

std::string PipelineConfig::cache_key() const {
  std::uint64_t h = seed;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  // Cache format 2: cells are written with 17 significant digits, so a
  // cached dataset is bit-identical to the collected one. Mixing the
  // version keeps caches written with 6 digits from being reused.
  mix(2);
  for (const auto& [cls, n] : composition.counts) {
    mix(static_cast<std::uint64_t>(cls));
    mix(n);
  }
  mix(collector.num_windows);
  mix(collector.warmup_windows);
  mix(collector.rotations_per_window);
  mix(collector.ops_per_window);
  mix(static_cast<std::uint64_t>(collector.window_ms * 1000.0));
  mix(collector.ideal_pmu ? 1 : 0);
  mix(static_cast<std::uint64_t>(collector.mux_scaling_sigma * 1e6));
  mix(collector.events.size());
  mix(static_cast<std::uint64_t>(sandbox.host_noise_frac * 1e6));
  mix(static_cast<std::uint64_t>(train_fraction * 1e6));
  // Mixed only when a plan is attached so clean-pipeline keys are
  // unchanged from pre-evasion builds.
  if (!evasion.empty()) mix(evasion.fingerprint());
  return format("hmd_%016llx", static_cast<unsigned long long>(h));
}

}  // namespace hmd::core
