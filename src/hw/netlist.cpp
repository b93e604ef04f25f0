#include "hw/netlist.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>

#include "util/error.hpp"
#include "util/fixed_point.hpp"

namespace hmd::hw {

std::int64_t q16_raw(double v) { return Fixed16::from_double(v).raw(); }

double q16_value(std::int64_t raw) {
  return Fixed16::from_raw(raw).to_double();
}

double q16_input_scale(double absmax) {
  absmax = std::max(absmax, 1e-12);
  return absmax > 16000.0 ? 16000.0 / absmax : 1.0;
}

std::int64_t quantize_input_raw(double x, double scale) {
  return q16_raw(x * scale);
}

double quantize_input(double x, double scale) {
  return quantize_q16(x * scale) / scale;
}

std::int64_t threshold_raw(double t, double scale) {
  const double scaled = t * scale * static_cast<double>(Fixed16::kOne);
  HMD_REQUIRE(std::isfinite(scaled) &&
                  scaled >= -9.2e18 && scaled <= 9.2e18,
              "threshold overflows the Q16.16 raw range");
  return static_cast<std::int64_t>(std::floor(scaled));
}

std::string_view net_op_name(NetOp op) {
  switch (op) {
    case NetOp::kInput: return "input";
    case NetOp::kConst: return "const";
    case NetOp::kCmpLe: return "cmp_le";
    case NetOp::kCmpGt: return "cmp_gt";
    case NetOp::kMux: return "mux";
    case NetOp::kAdd: return "add";
    case NetOp::kMul: return "mul";
    case NetOp::kAndReduce: return "and_reduce";
    case NetOp::kArgmax: return "argmax";
    case NetOp::kLutRom: return "lut_rom";
    case NetOp::kOutput: return "output";
    case NetOp::kCount: break;
  }
  return "invalid";
}

namespace {

std::uint32_t ceil_log2(std::size_t n) {
  std::uint32_t bits = 0;
  std::size_t reach = 1;
  while (reach < n) {
    reach <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

Netlist::Netlist(std::size_t num_features, std::size_t num_classes)
    : num_features_(num_features), num_classes_(num_classes) {
  HMD_REQUIRE(num_features >= 1, "Netlist: need at least one input feature");
  HMD_REQUIRE(num_classes >= 2, "Netlist: need at least two classes");
}

NetId Netlist::push(NetNode node) {
  nodes_.push_back(std::move(node));
  return static_cast<NetId>(nodes_.size() - 1);
}

const NetNode& Netlist::operand(NetId id) const {
  HMD_REQUIRE(id < nodes_.size(), "Netlist: operand net does not exist");
  return nodes_[id];
}

void Netlist::require_arith(NetId id) const {
  const NetType t = operand(id).type;
  HMD_REQUIRE(t == NetType::kQ16 || t == NetType::kWide,
              "Netlist: operand must be an arithmetic net");
}

NetId Netlist::input(std::uint32_t feature) {
  HMD_REQUIRE(feature < num_features_,
              "Netlist: input feature beyond the port list");
  return push({NetOp::kInput, NetType::kQ16, {}, 0, feature});
}

NetId Netlist::constant(NetType type, std::int64_t raw) {
  HMD_REQUIRE(type != NetType::kClass,
              "Netlist: use class_constant for class literals");
  if (type == NetType::kBit)
    HMD_REQUIRE(raw == 0 || raw == 1, "Netlist: bit constant must be 0 or 1");
  return push({NetOp::kConst, type, {}, raw, 0});
}

NetId Netlist::class_constant(std::size_t cls) {
  HMD_REQUIRE(cls < num_classes_, "Netlist: class literal out of range");
  return push({NetOp::kConst, NetType::kClass, {},
               static_cast<std::int64_t>(cls), 0});
}

NetId Netlist::cmp_le(NetId a, NetId b) {
  require_arith(a);
  require_arith(b);
  return push({NetOp::kCmpLe, NetType::kBit, {a, b}, 0, 0});
}

NetId Netlist::cmp_gt(NetId a, NetId b) {
  require_arith(a);
  require_arith(b);
  return push({NetOp::kCmpGt, NetType::kBit, {a, b}, 0, 0});
}

NetId Netlist::mux(NetId sel, NetId a, NetId b) {
  HMD_REQUIRE(operand(sel).type == NetType::kBit,
              "Netlist: mux select must be a bit net");
  HMD_REQUIRE(operand(a).type == operand(b).type,
              "Netlist: mux arms must share a type");
  return push({NetOp::kMux, operand(a).type, {sel, a, b}, 0, 0});
}

NetId Netlist::add(NetId a, NetId b) {
  require_arith(a);
  require_arith(b);
  return push({NetOp::kAdd, NetType::kWide, {a, b}, 0, 0});
}

NetId Netlist::mul(NetId a, NetId b, std::uint32_t shift) {
  require_arith(a);
  require_arith(b);
  HMD_REQUIRE(shift <= 62, "Netlist: mul shift out of range");
  return push({NetOp::kMul, NetType::kWide, {a, b},
               static_cast<std::int64_t>(shift), 0});
}

NetId Netlist::and_reduce(std::vector<NetId> args) {
  HMD_REQUIRE(!args.empty(), "Netlist: and_reduce needs operands");
  for (NetId a : args)
    HMD_REQUIRE(operand(a).type == NetType::kBit,
                "Netlist: and_reduce operands must be bit nets");
  return push({NetOp::kAndReduce, NetType::kBit, std::move(args), 0, 0});
}

NetId Netlist::argmax(std::vector<NetId> args) {
  HMD_REQUIRE(!args.empty(), "Netlist: argmax needs operands");
  HMD_REQUIRE(args.size() <= num_classes_,
              "Netlist: more argmax scores than classes");
  for (NetId a : args) require_arith(a);
  return push({NetOp::kArgmax, NetType::kClass, std::move(args), 0, 0});
}

std::uint32_t Netlist::add_lut(LutRom table) {
  HMD_REQUIRE(!table.values.empty() &&
                  (table.values.size() & (table.values.size() - 1)) == 0,
              "Netlist: LUT size must be a power of two");
  HMD_REQUIRE(table.step_shift < 63, "Netlist: LUT step shift out of range");
  luts_.push_back(std::move(table));
  return static_cast<std::uint32_t>(luts_.size() - 1);
}

NetId Netlist::lut_rom(std::uint32_t table, NetId addr) {
  HMD_REQUIRE(table < luts_.size(), "Netlist: LUT table does not exist");
  require_arith(addr);
  return push({NetOp::kLutRom, NetType::kWide, {addr}, 0, table});
}

void Netlist::set_output(NetId decision) {
  HMD_REQUIRE(!output_valid_, "Netlist: output already set");
  HMD_REQUIRE(operand(decision).type == NetType::kClass,
              "Netlist: output must be a class net");
  output_ = push({NetOp::kOutput, NetType::kClass, {decision}, 0, 0});
  output_valid_ = true;
}

std::size_t Netlist::class_bits() const {
  return std::max<std::size_t>(1, ceil_log2(num_classes_));
}

const NetNode& Netlist::node(NetId id) const {
  HMD_REQUIRE(id < nodes_.size(), "Netlist: net does not exist");
  return nodes_[id];
}

NetId Netlist::output() const {
  HMD_REQUIRE(output_valid_, "Netlist: output not set");
  return output_;
}

std::size_t Netlist::count_ops(NetOp op) const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [op](const NetNode& n) { return n.op == op; }));
}

namespace {

/// Instance count an n-ary reduction needs: a balanced tree of n-1 stages.
std::uint64_t tree_stages(std::size_t fan_in) {
  return fan_in > 1 ? static_cast<std::uint64_t>(fan_in - 1) : 0;
}

}  // namespace

ResourceCost Netlist::node_cost(NetId id) const {
  const NetNode& n = node(id);
  switch (n.op) {
    case NetOp::kInput:
    case NetOp::kConst:
      return {};
    case NetOp::kCmpLe:
    case NetOp::kCmpGt:
      return hw_op_cost(HwOp::kCompare);
    case NetOp::kMux:
      return hw_op_cost(HwOp::kMux2);
    case NetOp::kAdd:
      return hw_op_cost(HwOp::kAdd);
    case NetOp::kMul:
      return hw_op_cost(HwOp::kMul);
    case NetOp::kAndReduce:
      return hw_op_cost(HwOp::kAnd).scaled(tree_stages(n.args.size()));
    case NetOp::kArgmax:
      return hw_op_cost(HwOp::kArgmaxStage).scaled(tree_stages(n.args.size()));
    case NetOp::kLutRom:
      return hw_op_cost(luts_[n.index].kind == LutRom::Kind::kSigmoid
                            ? HwOp::kSigmoidLut
                            : HwOp::kGaussianLut);
    case NetOp::kOutput:
      return hw_op_cost(HwOp::kRegister);
    case NetOp::kCount:
      break;
  }
  HMD_REQUIRE(false, "Netlist: invalid op");
  return {};
}

std::uint32_t Netlist::node_latency(NetId id) const {
  const NetNode& n = node(id);
  switch (n.op) {
    case NetOp::kInput:
    case NetOp::kConst:
      return 0;
    case NetOp::kCmpLe:
    case NetOp::kCmpGt:
      return hw_op_latency(HwOp::kCompare);
    case NetOp::kMux:
      return hw_op_latency(HwOp::kMux2);
    case NetOp::kAdd:
      return hw_op_latency(HwOp::kAdd);
    case NetOp::kMul:
      return hw_op_latency(HwOp::kMul);
    case NetOp::kAndReduce:
      return ceil_log2(n.args.size()) * hw_op_latency(HwOp::kAnd);
    case NetOp::kArgmax:
      return ceil_log2(n.args.size()) * hw_op_latency(HwOp::kArgmaxStage);
    case NetOp::kLutRom:
      return hw_op_latency(luts_[n.index].kind == LutRom::Kind::kSigmoid
                               ? HwOp::kSigmoidLut
                               : HwOp::kGaussianLut);
    case NetOp::kOutput:
      return hw_op_latency(HwOp::kRegister);
    case NetOp::kCount:
      break;
  }
  HMD_REQUIRE(false, "Netlist: invalid op");
  return 0;
}

double Netlist::node_energy_pj(NetId id) const {
  const NetNode& n = node(id);
  switch (n.op) {
    case NetOp::kInput:
    case NetOp::kConst:
      return 0.0;
    case NetOp::kCmpLe:
    case NetOp::kCmpGt:
      return hw_op_energy_pj(HwOp::kCompare);
    case NetOp::kMux:
      return hw_op_energy_pj(HwOp::kMux2);
    case NetOp::kAdd:
      return hw_op_energy_pj(HwOp::kAdd);
    case NetOp::kMul:
      return hw_op_energy_pj(HwOp::kMul);
    case NetOp::kAndReduce:
      return hw_op_energy_pj(HwOp::kAnd) *
             static_cast<double>(tree_stages(n.args.size()));
    case NetOp::kArgmax:
      return hw_op_energy_pj(HwOp::kArgmaxStage) *
             static_cast<double>(tree_stages(n.args.size()));
    case NetOp::kLutRom:
      return hw_op_energy_pj(luts_[n.index].kind == LutRom::Kind::kSigmoid
                                 ? HwOp::kSigmoidLut
                                 : HwOp::kGaussianLut);
    case NetOp::kOutput:
      return hw_op_energy_pj(HwOp::kRegister);
    case NetOp::kCount:
      break;
  }
  HMD_REQUIRE(false, "Netlist: invalid op");
  return 0.0;
}

namespace {

constexpr std::size_t kNumPools = 3;

/// The shared pool a net draws from (0 = multipliers, 1 = adders,
/// 2 = comparators), or kNumPools for nets that own their instance.
std::size_t pool_of(NetOp op) {
  switch (op) {
    case NetOp::kMul: return 0;
    case NetOp::kAdd: return 1;
    case NetOp::kCmpLe:
    case NetOp::kCmpGt: return 2;
    default: return kNumPools;
  }
}

/// Per-pool instance caps (nullopt = unlimited), validated positive.
std::array<std::optional<std::uint32_t>, kNumPools> pool_caps(
    const OperatorAllocation& alloc) {
  const std::array<std::optional<std::uint32_t>, kNumPools> caps = {
      alloc.multipliers, alloc.adders, alloc.comparators};
  for (const auto& cap : caps)
    HMD_REQUIRE(!cap.has_value() || *cap > 0,
                "operator allocation must be positive");
  return caps;
}

}  // namespace

ResourceCost Netlist::total_resources(const OperatorAllocation& alloc) const {
  const auto caps = pool_caps(alloc);
  std::array<std::uint32_t, kNumPools> priced{};
  ResourceCost total;
  for (NetId id = 0; id < nodes_.size(); ++id) {
    // Every net of a pool costs the same, so pricing only the first `cap`
    // of them prices min(count, cap) instances.
    const std::size_t p = pool_of(nodes_[id].op);
    if (p < kNumPools && caps[p].has_value()) {
      if (priced[p] == *caps[p]) continue;
      ++priced[p];
    }
    total += node_cost(id);
  }
  return total;
}

double Netlist::total_energy_pj() const {
  double total = 0.0;
  for (NetId id = 0; id < nodes_.size(); ++id) total += node_energy_pj(id);
  return total;
}

Schedule Netlist::schedule(const OperatorAllocation& alloc) const {
  const auto caps = pool_caps(alloc);
  const std::size_t n = nodes_.size();
  Schedule sched;
  sched.start_cycle.assign(n, 0);

  // Remaining-operand counts and, in CSR form, the nets each result feeds:
  // users of net a are user_list[first_user[a] .. first_user[a + 1]).
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::uint32_t> first_user(n + 1, 0);
  for (NetId id = 0; id < n; ++id) {
    pending[id] = static_cast<std::uint32_t>(nodes_[id].args.size());
    for (NetId a : nodes_[id].args) ++first_user[a + 1];
  }
  for (std::size_t i = 0; i < n; ++i) first_user[i + 1] += first_user[i];
  std::vector<NetId> user_list(first_user[n]);
  {
    std::vector<std::uint32_t> fill(first_user.begin(), first_user.end() - 1);
    for (NetId id = 0; id < n; ++id)
      for (NetId a : nodes_[id].args) user_list[fill[a]++] = id;
  }

  // Min-heap of (operands-ready cycle, net): nets are placed in the order
  // their operands become available, so earlier-ready work claims shared
  // instances first.
  using Item = std::pair<std::uint32_t, NetId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> ready;
  std::vector<std::uint32_t> ready_at(n, 0);
  for (NetId id = 0; id < n; ++id)
    if (pending[id] == 0) ready.emplace(0, id);

  // Per pool, the cycle each physical instance frees up.
  std::array<std::vector<std::uint32_t>, kNumPools> busy_until;
  while (!ready.empty()) {
    const auto [cycle, id] = ready.top();
    ready.pop();
    const std::uint32_t latency = node_latency(id);
    std::uint32_t start = cycle;
    const std::size_t p = pool_of(nodes_[id].op);
    if (p < kNumPools && caps[p].has_value()) {
      auto& pool = busy_until[p];
      if (pool.size() < *caps[p]) pool.push_back(0);
      // Take the instance that frees earliest.
      auto it = std::min_element(pool.begin(), pool.end());
      start = std::max(start, *it);
      *it = start + latency;
    }
    sched.start_cycle[id] = start;
    const std::uint32_t done = start + latency;
    sched.latency_cycles = std::max(sched.latency_cycles, done);
    for (std::uint32_t u = first_user[id]; u < first_user[id + 1]; ++u) {
      const NetId user = user_list[u];
      ready_at[user] = std::max(ready_at[user], done);
      if (--pending[user] == 0) ready.emplace(ready_at[user], user);
    }
  }
  return sched;
}

}  // namespace hmd::hw
