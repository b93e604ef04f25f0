#include "report.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/trace.hpp"

namespace perfbench {

Span::Span(const char* call, std::string_view id)
    : call_(call),
      id_(id),
      start_s_(wall_seconds()),
      tracing_(hmd::tracer().enabled()) {
  if (tracing_) start_us_ = hmd::Tracer::now_us();
}

double Span::stop() {
  if (!open_) return elapsed_s_;
  open_ = false;
  elapsed_s_ = wall_seconds() - start_s_;
  if (tracing_) {
    hmd::tracer().record(hmd::TraceEvent{
        .name = std::string(call_) + " [" + id_ + "]",
        .tid = hmd::Tracer::current_thread_id(),
        .start_us = start_us_,
        .duration_us = static_cast<std::uint64_t>(std::llround(elapsed_s_ * 1e6))});
  }
  return elapsed_s_;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::add(Kind kind, std::string name, std::string unit, double value) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("bad metric name: " + name);
  if (!valid_metric_unit(unit))
    throw std::invalid_argument("bad unit for " + name + ": " + unit);
  for (const Metric& m : metrics_)
    if (m.name == name) throw std::invalid_argument("duplicate metric " + name);
  metrics_.push_back({std::move(name), std::move(unit), value, kind});
}

void Report::timing(std::string name, std::string unit, const Summary& summary) {
  timings_.push_back({std::move(name), std::move(unit), summary});
}

void Report::param(std::string name, std::string json_value) {
  params_.emplace_back(std::move(name), std::move(json_value));
}

void Report::param(std::string name, double value) {
  param(std::move(name), json_number(value));
}

void Report::gate(std::string name, bool ok, std::string detail) {
  gates_.push_back({std::move(name), ok, std::move(detail)});
}

bool Report::correct() const {
  for (const Gate& g : gates_)
    if (!g.ok) return false;
  return !gates_.empty();
}

namespace {

std::string metric_object(const Metric& m) {
  return json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
}

}  // namespace

std::string Report::detail_json(const std::string& workload,
                                std::uint64_t seed, bool trace,
                                const std::string& metadata) const {
  std::string out = "{\"perfbench\": {\"workload\": " + json_string(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + (trace ? "true" : "false") +
                    ", \"metadata\": " + metadata + ", \"params\": {";
  for (std::size_t i = 0; i < params_.size(); ++i)
    out += (i ? ", " : "") + json_string(params_[i].first) + ": " +
           params_[i].second;
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    out += (i ? ", " : "") + metric_object(metrics_[i]);
  out += "}, \"timings\": {";
  for (std::size_t i = 0; i < timings_.size(); ++i)
    out += (i ? ", " : "") + json_string(timings_[i].name) +
           ": {\"unit\": " + json_string(timings_[i].unit) +
           ", \"summary\": " + timings_[i].summary.json() + "}";
  out += "}, \"gates\": {";
  for (std::size_t i = 0; i < gates_.size(); ++i)
    out += (i ? ", " : "") + json_string(gates_[i].name) +
           ": {\"ok\": " + (gates_[i].ok ? "true" : "false") +
           ", \"detail\": " + json_string(gates_[i].detail) + "}";
  return out + "}}}";
}

std::string Report::result_json(Kind kind) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.kind != kind) continue;
    out += (first ? "" : ", ") + metric_object(m);
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
