// Netlist pipeline bench: compiles every RTL-capable scheme through
// hw::compile(), scores the held-out split on the cycle-accurate
// NetlistSimulator, and writes BENCH_netlist.json.
//
// Three families of numbers per scheme:
//   - fidelity: simulator decisions vs the QuantizedModel Q16.16 reference
//     on the same input grid. Bit-identity is a hard gate for the
//     rtl_exact schemes (non-zero exit on any mismatch); the LUT-ROM
//     schemes (NaiveBayes, MLP) report an agreement rate instead.
//   - hardware: measured cycles/window and area from CompiledDesign's
//     report().
//   - software: simulator throughput in windows/s (how fast the
//     interpreter itself scores, relevant for the serve fpga tier).
//
// Scale knobs (environment):
//   HMD_NETLIST_ROWS  held-out rows scored per scheme (default 2000)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "hw/compile.hpp"
#include "hw/fixed_point_eval.hpp"
#include "hw/netlist_sim.hpp"
#include "ml/dataset.hpp"
#include "ml/quantized.hpp"
#include "ml/registry.hpp"

namespace {

using namespace hmd;

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0')
             ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10))
             : fallback;
}

/// Aliasing shared_ptr: lets QuantizedModel borrow a stack-owned model.
std::shared_ptr<const ml::Classifier> borrow(const ml::Classifier& c) {
  return {std::shared_ptr<const ml::Classifier>(), &c};
}

struct SchemeResult {
  std::string scheme;
  bool exact = false;          ///< in ml::rtl_exact_schemes()
  std::size_t nets = 0;
  std::size_t rows = 0;        ///< held-out rows scored
  std::size_t mismatches = 0;  ///< sim vs Q16 reference decisions
  double agreement = 1.0;
  // Hardware numbers measured from the netlist.
  std::uint32_t cycles_per_window = 0;
  double latency_us = 0.0;
  double area_slices = 0.0;
  double sim_windows_per_s = 0.0;  ///< software interpreter throughput
};

SchemeResult run_scheme(const std::string& scheme, const ml::Dataset& train,
                        const ml::Dataset& test, std::size_t max_rows,
                        const std::vector<std::string>& exact_set) {
  SchemeResult r;
  r.scheme = scheme;
  for (const std::string& e : exact_set) r.exact = r.exact || e == scheme;

  auto clf = ml::make_classifier(scheme);
  clf->train(train);

  hw::CompileOptions opts;
  opts.num_features = train.num_features();
  opts.feature_absmax = hw::calibrate_feature_absmax(test);
  const hw::CompiledDesign design = hw::compile(*clf, std::move(opts));
  const hw::NetlistSimulator sim(design);
  const hw::SynthesisReport measured = design.report();

  r.nets = design.netlist().num_nodes();
  r.cycles_per_window = measured.latency_cycles;
  r.latency_us = measured.latency_us();
  r.area_slices = measured.area_slices();

  // Fidelity: the simulator vs the QuantizedModel reference on the SAME
  // Q16.16 input grid (both quantize with the calibrated absmax).
  const ml::QuantizedModel reference(borrow(*clf),
                                     ml::QuantizedModel::Mode::kQ16Input,
                                     hw::calibrate_feature_absmax(test));
  r.rows = std::min(max_rows, test.num_instances());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < r.rows; ++i) {
    const auto row = test.features_of(i);
    if (sim.run(row) != reference.predict(row)) ++r.mismatches;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  r.sim_windows_per_s =
      secs > 0.0 ? static_cast<double>(r.rows) / secs : 0.0;
  r.agreement = r.rows == 0
                    ? 1.0
                    : 1.0 - static_cast<double>(r.mismatches) /
                                static_cast<double>(r.rows);
  return r;
}

void write_json(const std::string& path, std::size_t train_rows,
                std::size_t test_rows, const std::vector<SchemeResult>& rs) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"metadata\": " << bench::metadata_json("  ").substr(2) << ",\n"
      << "  \"train_rows\": " << train_rows << ",\n"
      << "  \"test_rows\": " << test_rows << ",\n"
      << "  \"clock_mhz\": 100.0,\n"
      << "  \"schemes\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const SchemeResult& r = rs[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"scheme\": \"%s\", \"exact\": %s, \"nets\": %zu, "
        "\"rows\": %zu, \"mismatches\": %zu, \"agreement\": %.6f, "
        "\"cycles_per_window\": %u, \"latency_us\": %.4f, "
        "\"area_slices\": %.2f, \"sim_windows_per_s\": %.0f}%s\n",
        r.scheme.c_str(), r.exact ? "true" : "false", r.nets, r.rows,
        r.mismatches, r.agreement, r.cycles_per_window, r.latency_us,
        r.area_slices, r.sim_windows_per_s, i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  bench::print_banner("netlist pipeline (hw::compile + simulator)");
  const auto [train, test] = bench::binary_split();
  const std::size_t max_rows = env_or("HMD_NETLIST_ROWS", 2000);
  const std::vector<std::string> exact_set = ml::rtl_exact_schemes();

  std::printf("%-14s %6s %8s %10s %12s %10s\n", "scheme", "nets", "cycles",
              "area", "sim win/s", "agreement");
  std::vector<SchemeResult> results;
  for (const std::string& scheme : ml::rtl_schemes()) {
    SchemeResult r = run_scheme(scheme, train, test, max_rows, exact_set);
    std::printf("%-14s %6zu %8u %10.1f %12.0f %10.4f\n", r.scheme.c_str(),
                r.nets, r.cycles_per_window, r.area_slices,
                r.sim_windows_per_s, r.agreement);
    std::fprintf(stderr,
                 "[bench] netlist %-14s nets=%zu cycles/window=%u "
                 "latency=%.3fus area=%.1f sim=%.0f win/s rows=%zu "
                 "mismatches=%zu%s\n",
                 r.scheme.c_str(), r.nets, r.cycles_per_window, r.latency_us,
                 r.area_slices, r.sim_windows_per_s, r.rows, r.mismatches,
                 r.exact ? " [exact gate]" : "");
    results.push_back(std::move(r));
  }

  const std::string path = "BENCH_netlist.json";
  write_json(path, train.num_instances(), test.num_instances(), results);
  std::fprintf(stderr, "[bench] netlist results written to %s\n",
               path.c_str());

  // Hard gate: for the rtl_exact schemes, the simulated netlist must be
  // bit-identical to the fixed-point reference on every scored row. CI
  // treats a non-zero exit as a regression.
  bool ok = true;
  for (const SchemeResult& r : results) {
    if (r.exact && r.mismatches != 0) {
      ok = false;
      std::fprintf(stderr,
                   "[bench] ERROR: %s simulator diverged from the Q16.16 "
                   "reference on %zu/%zu rows\n",
                   r.scheme.c_str(), r.mismatches, r.rows);
    }
  }
  return ok ? 0 : 1;
}
