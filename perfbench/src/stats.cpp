#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile q outside [0, 1]");
  std::sort(samples.begin(), samples.end());
  const double h = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double supported_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly above the p-th percentile: n * (1 - p / 100). The
    // epsilon keeps 1000 * 0.01 from rounding to just under 10.
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return p;
  }
  return 0.0;
}

std::string Summary::json() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"n\": %zu, \"p50\": %.17g, \"tail_percentile\": %.17g, "
                "\"tail\": %.17g}",
                count, median, tail_percentile, tail);
  return buf;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.median = quantile(samples, 0.5);
  s.tail_percentile = supported_percentile(samples.size());
  if (s.tail_percentile > 0.0)
    s.tail = quantile(samples, s.tail_percentile / 100.0);
  return s;
}

TickAccount::TickAccount(double period_ms) : period_ms_(period_ms) {
  if (!(period_ms > 0.0))
    throw std::invalid_argument("tick period must be positive");
}

double TickAccount::scheduled_ms(std::size_t tick) const {
  return static_cast<double>(tick) * period_ms_;
}

void TickAccount::record(std::size_t tick, double start_ms, double end_ms,
                         bool failed) {
  if (tick != latency_ms_.size())
    throw std::invalid_argument("ticks must be recorded in order");
  const double due = scheduled_ms(tick);
  latency_ms_.push_back(end_ms - due);
  lateness_ms_.push_back(std::max(0.0, start_ms - due));
  if (failed) ++failures_;
  if (failed || end_ms - due > period_ms_) ++misses_;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_metric_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
