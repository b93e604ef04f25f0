// perfbench — the repository benchmark.
//
//   perfbench --workload <serve_knn|serve_fleet|paper_pipeline> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Prints two lines on stdout: the full report ({"perfbench": {...}}) and,
// last, the result object whose metrics BENCHMARK.json lists (end-to-end
// with --trace 0, per-layer with --trace 1). Exits 1 when a correctness
// gate fails, 2 on bad arguments or an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench/bench_common.hpp"
#include "report.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_knn|serve_fleet|paper_pipeline> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file.json>]\n",
               why);
  return 2;
}

/// metadata_json() spans several lines; the report is one line.
std::string one_line(std::string s) {
  std::string out;
  for (const char c : s)
    if (c != '\n') out += c;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0))
        return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");

  perfbench::Report report;
  try {
    if (workload == "serve_knn") {
      perfbench::run_serve_knn(options, report);
    } else if (workload == "serve_fleet") {
      perfbench::run_serve_fleet(options, report);
    } else if (workload == "paper_pipeline") {
      perfbench::run_paper_pipeline(options, report);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 2;
  }
  hmd::tracer().set_enabled(false);
  if (options.trace && !trace_out.empty()) {
    std::ofstream out(trace_out);
    hmd::tracer().write_chrome_json(out);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 2;
    }
  }

  std::printf("%s\n", report
                          .detail_json(workload, options.seed, options.trace,
                                       one_line(hmd::bench::metadata_json("")))
                          .c_str());
  std::printf("%s\n", report
                          .result_json(options.trace ? perfbench::Kind::kLayer
                                                     : perfbench::Kind::kEndToEnd)
                          .c_str());
  return report.correct() ? 0 : 1;
}
