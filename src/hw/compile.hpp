// The hw compiler pipeline: hw::compile() is the single entry point that
// turns a trained classifier into hardware.
//
//   auto design = hw::compile(*clf, {.num_features = d});
//   std::string rtl  = design.emit(VerilogBackend());   // or VhdlBackend
//   auto       report = design.report();                // measured numbers
//   NetlistSimulator sim(design);                       // execute it
//
// compile() lowers the model onto the netlist IR (hw/netlist.hpp) with
// Q16.16 semantics shared with hw/evaluate_fixed_point; CompiledDesign then
// exposes the pluggable Backends (Verilog, VHDL) and the cycle-accurate
// NetlistSimulator. report() quotes numbers measured from the netlist:
// latency is Netlist::schedule()'s critical path over the per-net pipeline
// annotations, area/energy are summed from the instantiated nets. Passing
// an OperatorAllocation re-schedules the same nets over shared multiplier/
// adder/comparator pools — the area/latency trade hw/pareto sweeps. The
// netlist is the repo's only hardware cost model.
//
// Supported schemes (see ml::rtl_schemes()):
//   exact    — OneR, DecisionStump, J48, JRip, MLR, SVM: simulator class
//              decisions are bit-identical to hw/evaluate_fixed_point
//              (threshold compares use the exact floor equivalence; linear
//              scores carry extended-precision folded weights);
//   LUT      — NaiveBayes (per class x feature Gaussian log-density ROMs)
//              and MLP (sigmoid ROM): faithful to the float model up to the
//              ROM quantization step, measured — not gated — in benches.
//
// Unsupported schemes (IBk, ZeroR, ensembles, one-class): try_compile()
// returns a kPrecondition ErrorInfo naming the scheme; compile() raises it
// as hmd::PreconditionError.
#pragma once

#include <string>
#include <vector>

#include "hw/netlist.hpp"
#include "ml/classifier.hpp"
#include "util/result.hpp"

namespace hmd::hw {

class Backend;

/// Knobs for one compilation.
struct CompileOptions {
  /// Input port count (the serving window width). Must cover every feature
  /// the model references; required (> 0).
  std::size_t num_features = 0;
  /// RTL module/entity name.
  std::string module_name = "hmd_detector";
  /// Per-feature magnitude calibration for the input grid (one entry per
  /// port). Empty = derive a dataset-free bound from the model itself via
  /// model_feature_absmax(). Pass hw::calibrate_feature_absmax(test) to pin
  /// the grid to a dataset, exactly as evaluate_fixed_point does.
  std::vector<double> feature_absmax = {};
  /// Entries per LUT-ROM (power of two). Larger = closer to the float
  /// model for NaiveBayes/MLP, more BRAM lines in the emitted RTL.
  std::size_t lut_size = 256;
  /// report() target clock.
  double clock_mhz = 100.0;
  /// Windows classified per second (drives average power): the paper's
  /// 10 ms sampling period -> 100 inferences/s per monitored core.
  double inferences_per_second = 100.0;
};

/// Area, latency and power of one compiled design — the numbers Vivado HLS
/// hands back, at the CompileOptions target clock.
struct SynthesisReport {
  std::string design_name;
  ResourceCost resources;
  std::uint32_t latency_cycles = 0;
  double clock_mhz = 100.0;
  double energy_per_inference_pj = 0.0;
  double static_power_mw = 0.0;
  double dynamic_power_mw = 0.0;

  double latency_us() const {
    return static_cast<double>(latency_cycles) / clock_mhz;
  }
  double area_slices() const { return resources.equivalent_slices(); }
  double total_power_mw() const { return static_power_mw + dynamic_power_mw; }

  /// One-line human-readable rendering.
  std::string to_string() const;
};

/// A compiled classifier: the netlist plus the grid calibration it was
/// baked against. Cheap to copy-move; backends and the simulator only read.
class CompiledDesign {
 public:
  const Netlist& netlist() const { return netlist_; }
  /// Canonical scheme name of the compiled model ("J48", "MLR", ...).
  const std::string& scheme() const { return scheme_; }
  const std::string& module_name() const { return module_name_; }
  std::size_t num_features() const { return netlist_.num_features(); }
  std::size_t num_classes() const { return netlist_.num_classes(); }
  /// Per-feature input pre-scales (q16_input_scale of the calibration).
  const std::vector<double>& feature_scales() const { return scales_; }
  const std::vector<double>& feature_absmax() const { return absmax_; }
  double clock_mhz() const { return clock_mhz_; }
  double inferences_per_second() const { return inferences_per_second_; }

  /// Render through a language backend (VerilogBackend / VhdlBackend).
  std::string emit(const Backend& backend) const;

  /// Synthesis numbers measured from the netlist: latency from
  /// Netlist::schedule(allocation), area from total_resources(allocation)
  /// (pooled kinds priced at min(count, cap) instances), energy summed
  /// over the nets; static power scales with area, dynamic with the
  /// inference rate. With no caps this is the fully parallel design.
  SynthesisReport report(const OperatorAllocation& allocation = {}) const;

 private:
  friend Result<CompiledDesign> try_compile(const ml::Classifier&,
                                            CompileOptions);
  CompiledDesign(Netlist netlist, std::string scheme, std::string module_name,
                 std::vector<double> absmax, std::vector<double> scales,
                 double clock_mhz, double ips)
      : netlist_(std::move(netlist)),
        scheme_(std::move(scheme)),
        module_name_(std::move(module_name)),
        absmax_(std::move(absmax)),
        scales_(std::move(scales)),
        clock_mhz_(clock_mhz),
        inferences_per_second_(ips) {}

  Netlist netlist_;
  std::string scheme_;
  std::string module_name_;
  std::vector<double> absmax_;
  std::vector<double> scales_;
  double clock_mhz_;
  double inferences_per_second_;
};

/// True when `clf` (after unwrapping decorators) has a netlist lowering.
bool compile_supported(const ml::Classifier& clf);

/// Compile, or a kPrecondition ErrorInfo (unsupported scheme, untrained
/// model, bad options) — the Result-based surface for tools that fall back
/// instead of aborting (the fpga serving tier, hmd_train --emit-rtl).
Result<CompiledDesign> try_compile(const ml::Classifier& clf,
                                   CompileOptions options);

/// Throwing wrapper over try_compile().
CompiledDesign compile(const ml::Classifier& clf, CompileOptions options);

/// Dataset-free per-feature magnitude bound derived from the model itself:
/// |mean| + 6*stddev per feature where the scheme carries a standardizer or
/// Gaussian parameters, twice the largest threshold magnitude for the
/// tree/rule family. Deterministic for a given model, so per-shard serving
/// compiles agree regardless of shard count.
std::vector<double> model_feature_absmax(const ml::Classifier& clf,
                                         std::size_t num_features);

}  // namespace hmd::hw
