// Netlist IR: the shared hardware representation behind hw::compile().
//
// Lowering a trained classifier produces one Netlist — a DAG of typed nets
// over a deliberately small op set (const / compare / mux / add / mul /
// and-reduce / argmax / LUT-ROM) with Q16.16 fixed-point semantics. Every
// consumer walks the same IR:
//
//   VerilogBackend / VhdlBackend  (hw/verilog_backend.hpp, vhdl_backend.hpp)
//       render each net as one RTL statement, so both languages are
//       emitted from identical structure (the Icarus tgt-vhdl split);
//   NetlistSimulator              (hw/netlist_sim.hpp)
//       executes the nets in topological order over int64 raws;
//   Netlist::schedule()           (below)
//       list-schedules the nets over the per-node pipeline annotations,
//       optionally under a bounded OperatorAllocation — the one place the
//       repo derives hardware latency;
//   CompiledDesign::report()      (hw/compile.hpp)
//       prices the nets with the hw/resource.hpp operator library.
//
// The Q16.16 input-grid helpers at the top of this header are the single
// source of truth for how raw feature values quantize onto the hardware
// grid. ml::QuantizedModel (the q16 serving tier), hw/fixed_point_eval,
// the RTL testbenches and the simulator all share them, so the grids
// cannot drift apart:
//
//   scale   = q16_input_scale(absmax)        per-feature pre-scale
//   raw     = quantize_input_raw(x, scale)   what the input port carries
//   x_q     = quantize_input(x, scale)       what the float model sees
//   raw <= threshold_raw(t, scale)  <=>  x_q <= t       (exactly)
//   raw >  threshold_raw(t, scale)  <=>  x_q >  t       (exactly)
//
// The floor in threshold_raw (NOT round-to-nearest) is what makes the two
// equivalences exact, which in turn makes the compiled tree/rule netlists
// bit-identical to hw/evaluate_fixed_point.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "hw/resource.hpp"

namespace hmd::hw {

// ---------------------------------------------------------------------------
// Shared Q16.16 input-grid helpers.

/// Nearest Q16.16 raw for `v` (llround); throws on overflow/non-finite.
std::int64_t q16_raw(double v);

/// The double a Q16.16 raw denotes: raw / 2^16.
double q16_value(std::int64_t raw);

/// Per-feature pre-scale for a magnitude bound: values stay within ±2^14
/// so Q16.16 products remain representable — the identical rule
/// ml::QuantizedModel applies (absmax is clamped to >= 1e-12 first).
double q16_input_scale(double absmax);

/// The raw integer an input port carries for feature value `x`.
std::int64_t quantize_input_raw(double x, double scale);

/// The quantized feature value the float reference model sees — exactly
/// ml::QuantizedModel's grid: quantize_q16(x*scale)/scale.
double quantize_input(double x, double scale);

/// Threshold constant with floor semantics: the largest raw satisfying
/// raw/2^16/scale <= t, so integer compares against it reproduce the float
/// compare on the quantized grid exactly (see header comment).
std::int64_t threshold_raw(double t, double scale);

// ---------------------------------------------------------------------------
// The IR.

/// Net handle (index into Netlist::node()).
using NetId = std::uint32_t;

/// Value domain of a net.
enum class NetType : std::uint8_t {
  kBit,    ///< 1-bit predicate
  kQ16,    ///< Q16.16 in a 32-bit port word (inputs, LUT outputs)
  kWide,   ///< Q48.16 in a 64-bit word (scores, products, sums)
  kClass,  ///< class label, ceil(log2 k) bits
};

/// The op set. Arithmetic evaluates over int64 raws; kMul uses a 128-bit
/// intermediate then an arithmetic right shift by NetNode::value bits.
enum class NetOp : std::uint8_t {
  kInput,      ///< feature port (NetNode::index), kQ16
  kConst,      ///< literal raw (NetNode::value)
  kCmpLe,      ///< args[0] <= args[1], kBit
  kCmpGt,      ///< args[0] >  args[1], kBit
  kMux,        ///< args[0] ? args[1] : args[2]
  kAdd,        ///< args[0] + args[1], kWide
  kMul,        ///< (args[0] * args[1]) >> value, kWide
  kAndReduce,  ///< AND over all args, kBit
  kArgmax,     ///< index of the first maximum of args (strict >), kClass
  kLutRom,     ///< luts()[index] addressed by args[0], kWide
  kOutput,     ///< registered output stage over args[0] (kClass)
  kCount
};

std::string_view net_op_name(NetOp op);

/// One net: the op that drives it plus its operand nets.
struct NetNode {
  NetOp op = NetOp::kConst;
  NetType type = NetType::kQ16;
  std::vector<NetId> args;
  std::int64_t value = 0;    ///< kConst: raw literal; kMul: shift amount
  std::uint32_t index = 0;   ///< kInput: feature; kLutRom: table id
};

/// A baked ROM: entry i covers raw addresses
/// [lo_raw + (i << step_shift), lo_raw + ((i+1) << step_shift)); addresses
/// outside the domain clamp to the first/last entry (saturating lookup).
struct LutRom {
  enum class Kind : std::uint8_t { kSigmoid, kGaussian };
  Kind kind = Kind::kSigmoid;
  std::int64_t lo_raw = 0;
  std::uint32_t step_shift = 0;
  std::vector<std::int64_t> values;  ///< Q48.16 raw outputs, power-of-two size
};

/// Operator allocation for resource-shared scheduling: how many physical
/// instances of each pooled operator class exist. Missing entries =
/// unlimited (every net gets its own instance — the fully parallel design).
/// The n-ary and-reduce/argmax trees, muxes, ROMs and the output register
/// are never pooled.
struct OperatorAllocation {
  std::optional<std::uint32_t> multipliers = {};  ///< shared kMul pool
  std::optional<std::uint32_t> adders = {};       ///< shared kAdd pool
  std::optional<std::uint32_t> comparators = {};  ///< kCmpLe/kCmpGt pool
};

/// A list schedule of a netlist.
struct Schedule {
  std::uint32_t latency_cycles = 0;
  std::vector<std::uint32_t> start_cycle;  ///< per net
};

/// The DAG. Built by hw::compile()'s scheme lowerings; immutable afterwards.
/// Builder methods validate operand existence and types, so a Netlist that
/// constructed successfully is well-formed by construction.
class Netlist {
 public:
  Netlist(std::size_t num_features, std::size_t num_classes);

  // -- builders -------------------------------------------------------------
  NetId input(std::uint32_t feature);
  NetId constant(NetType type, std::int64_t raw);
  /// Class-label literal (validated against num_classes).
  NetId class_constant(std::size_t cls);
  NetId cmp_le(NetId a, NetId b);
  NetId cmp_gt(NetId a, NetId b);
  NetId mux(NetId sel, NetId a, NetId b);
  NetId add(NetId a, NetId b);
  /// (a * b) >> shift with a 128-bit intermediate product.
  NetId mul(NetId a, NetId b, std::uint32_t shift);
  NetId and_reduce(std::vector<NetId> args);
  NetId argmax(std::vector<NetId> args);
  std::uint32_t add_lut(LutRom table);
  NetId lut_rom(std::uint32_t table, NetId addr);
  /// Registers `decision` (a kClass net) as the module output; required
  /// exactly once.
  void set_output(NetId decision);

  // -- queries --------------------------------------------------------------
  std::size_t num_features() const { return num_features_; }
  std::size_t num_classes() const { return num_classes_; }
  /// ceil(log2 num_classes), >= 1 — the class_out port width.
  std::size_t class_bits() const;
  std::size_t num_nodes() const { return nodes_.size(); }
  const NetNode& node(NetId id) const;
  const std::vector<NetNode>& nodes() const { return nodes_; }
  const std::vector<LutRom>& luts() const { return luts_; }
  bool has_output() const { return output_valid_; }
  NetId output() const;
  /// Count of nets driven by `op`.
  std::size_t count_ops(NetOp op) const;

  // -- cost annotations (hw/resource.hpp operator library) ------------------
  /// Resources one net instantiates (n-ary reductions cost n-1 stages).
  ResourceCost node_cost(NetId id) const;
  /// Pipeline latency of one net in cycles (n-ary reductions are balanced
  /// trees: ceil(log2 n) stages).
  std::uint32_t node_latency(NetId id) const;
  /// Per-net dynamic energy (pJ) for one window.
  double node_energy_pj(NetId id) const;
  /// Summed resources. Pooled kinds are priced at min(count, cap)
  /// instances under a bounded allocation; everything else as instantiated.
  ResourceCost total_resources(const OperatorAllocation& alloc = {}) const;
  double total_energy_pj() const;

  /// Resource-constrained list schedule: nets start once their operands
  /// are registered and, for pooled kinds, an instance is free (one op per
  /// instance at a time — sharing's upper bound on latency). With no caps
  /// this is the ASAP schedule and latency is the registered critical
  /// path. Throws hmd::PreconditionError on a zero-sized pool.
  Schedule schedule(const OperatorAllocation& alloc = {}) const;

 private:
  NetId push(NetNode node);
  const NetNode& operand(NetId id) const;
  void require_arith(NetId id) const;

  std::size_t num_features_;
  std::size_t num_classes_;
  std::vector<NetNode> nodes_;
  std::vector<LutRom> luts_;
  NetId output_ = 0;
  bool output_valid_ = false;
};

}  // namespace hmd::hw
