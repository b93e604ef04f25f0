// What one benchmark run prints: the detailed report (every metric the
// workload measured, quantile summaries, parameters, gates, provenance)
// and the one-line result whose metrics BENCHMARK.json lists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Times one call into a layer from outside it. When the process tracer
/// is recording, stop() also records a span named "<call> [<id>]", so the
/// spans of one tick or pipeline stage share the identifier `id`.
class Span {
 public:
  Span(const char* call, std::string_view id);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Seconds since construction; the first call closes the span.
  double stop();

 private:
  const char* call_;
  std::string id_;
  double start_s_;
  std::uint64_t start_us_ = 0;
  bool tracing_;
  bool open_ = true;
  double elapsed_s_ = 0.0;
};

/// Kinds of metric: the end-to-end set printed by untraced runs, the
/// per-layer set printed by traced runs, and details that only the full
/// report carries (workload-specific numbers outside BENCHMARK.json).
enum class Kind { kEndToEnd, kLayer, kDetail };

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Kind kind = Kind::kDetail;
};

class Report {
 public:
  /// Add a metric; throws std::invalid_argument for a name or unit that
  /// breaks the naming rules, or a name used twice.
  void add(Kind kind, std::string name, std::string unit, double value);
  /// A timing summary (quantiles from raw samples) for the full report.
  void timing(std::string name, std::string unit, const Summary& summary);
  /// A workload parameter; `json_value` is already JSON-encoded.
  void param(std::string name, std::string json_value);
  void param(std::string name, double value);
  /// A correctness gate; any failed gate makes the run incorrect.
  void gate(std::string name, bool ok, std::string detail);

  void count_attempt(std::uint64_t n) { attempted_ += n; }
  void count_failure(std::uint64_t n) { failed_ += n; }

  bool correct() const;
  /// {"perfbench": {...}} — everything measured, on one line.
  std::string detail_json(const std::string& workload, std::uint64_t seed,
                          bool trace, const std::string& metadata) const;
  /// {"correct", "attempted", "failed", "metrics"} with the metrics of
  /// `kind` only.
  std::string result_json(Kind kind) const;

 private:
  struct Timing {
    std::string name, unit;
    Summary summary;
  };
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Timing> timings_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<Gate> gates_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// JSON string literal for `s` (quotes and backslashes escaped).
std::string json_string(std::string_view s);
/// A double with every significant digit (non-finite values become null).
std::string json_number(double v);

}  // namespace perfbench
