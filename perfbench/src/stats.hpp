// Measurement helpers of the repository benchmark: quantiles computed from
// raw samples, the open-loop tick accounting of the serve workloads, and
// the process clocks every workload reads.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile (Hyndman-Fan type 7, numpy's default) of
/// raw samples; `q` in [0, 1]. Throws std::invalid_argument on an empty
/// sample or a q outside [0, 1].
double quantile(std::vector<double> samples, double q);

/// Highest percentile among {99.9, 99, 95, 90, 75, 50} that leaves at
/// least `min_beyond` of `n` samples above it; 0 when not even the median
/// qualifies.
double supported_percentile(std::size_t n, std::size_t min_beyond = 10);

/// A timing as the guides ask for it: median plus the highest percentile
/// the sample supports, with the sample count.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double tail_percentile = 0.0;  ///< e.g. 99 for p99; 0 = none supported
  double tail = 0.0;             ///< value at tail_percentile
  /// {"n": .., "p50": .., "p<tail>": ..} with all digits.
  std::string json() const;
};
Summary summarize(const std::vector<double>& samples);

/// Open-loop tick accounting. Tick i is due at i * period from the start
/// of the phase. Its latency runs from that scheduled time to the moment
/// its work completed, so a tick that overruns charges the wait it imposes
/// on every later tick (no coordinated omission). Lateness is how late the
/// generator started a tick's work.
class TickAccount {
 public:
  explicit TickAccount(double period_ms);

  /// Scheduled start of tick `tick`, ms since the phase start.
  double scheduled_ms(std::size_t tick) const;
  /// Record tick `tick` (ticks are recorded in order), with its start and
  /// completion in ms since the phase start. `failed` marks a tick whose
  /// work raised; it always counts as a deadline miss.
  void record(std::size_t tick, double start_ms, double end_ms,
              bool failed = false);

  std::size_t ticks() const { return latency_ms_.size(); }
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }
  /// Ticks whose work completed after their deadline (scheduled start +
  /// period), plus failed ticks.
  std::size_t deadline_misses() const { return misses_; }
  std::size_t failures() const { return failures_; }

 private:
  double period_ms_;
  std::vector<double> latency_ms_;
  std::vector<double> lateness_ms_;
  std::size_t misses_ = 0;
  std::size_t failures_ = 0;
};

/// Metric names: start with a letter or digit, at most 64 characters from
/// letters, digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);
/// Units: 1 to 16 characters from letters, digits, '_', '/', '%', '.', '-'.
bool valid_metric_unit(std::string_view unit);

/// Process CPU time (all threads), seconds.
double process_cpu_seconds();
/// CPU time of the calling thread, seconds.
double thread_cpu_seconds();
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();
/// Monotonic wall clock, seconds since an arbitrary epoch.
double wall_seconds();

}  // namespace perfbench
