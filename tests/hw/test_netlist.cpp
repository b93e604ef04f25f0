#include "hw/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/fixed_point.hpp"
#include "util/rng.hpp"

namespace hmd::hw {
namespace {

// ---------------------------------------------------------------------------
// Q16.16 input-grid helpers.

TEST(NetlistGrid, RawRoundTripsThroughValue) {
  EXPECT_EQ(q16_raw(1.0), 65536);
  EXPECT_EQ(q16_raw(-0.5), -32768);
  EXPECT_DOUBLE_EQ(q16_value(65536), 1.0);
  EXPECT_DOUBLE_EQ(q16_value(q16_raw(3.25)), 3.25);
}

TEST(NetlistGrid, RawMatchesFixed16) {
  // The grid helpers and util/fixed_point.hpp must agree on the word.
  for (const double v : {0.0, 1.0, -2.75, 123.456, -0.0001})
    EXPECT_EQ(q16_raw(v), Fixed16::from_double(v).raw()) << v;
}

TEST(NetlistGrid, RawRejectsNonFinite) {
  EXPECT_THROW((void)q16_raw(std::nan("")), PreconditionError);
  EXPECT_THROW((void)q16_raw(1e300), PreconditionError);
}

TEST(NetlistGrid, InputScaleMatchesQuantizedModelRule) {
  // absmax <= 16000 passes through unscaled; larger magnitudes compress to
  // the ±16000 band; degenerate absmax clamps instead of dividing by zero.
  EXPECT_DOUBLE_EQ(q16_input_scale(100.0), 1.0);
  EXPECT_DOUBLE_EQ(q16_input_scale(16000.0), 1.0);
  EXPECT_DOUBLE_EQ(q16_input_scale(32000.0), 0.5);
  EXPECT_GT(q16_input_scale(0.0), 0.0);
  EXPECT_TRUE(std::isfinite(q16_input_scale(0.0)));
}

TEST(NetlistGrid, QuantizeInputIsTheRawOverTheScale) {
  const double scale = q16_input_scale(5e6);
  for (const double x : {0.0, 1e6, -3.7e6, 4.999e6}) {
    const std::int64_t raw = quantize_input_raw(x, scale);
    EXPECT_DOUBLE_EQ(quantize_input(x, scale), q16_value(raw) / scale) << x;
  }
}

TEST(NetlistGrid, ThresholdFloorEquivalenceIsExact) {
  // The property the whole tree/rule lowering rests on:
  //   raw <= threshold_raw(t, scale)  <=>  quantize_input(x, scale) <= t
  // for every x — including x exactly on / adjacent to the threshold.
  Rng rng(42);
  for (const double absmax : {1.0, 100.0, 5e6}) {
    const double scale = q16_input_scale(absmax);
    for (int trial = 0; trial < 2000; ++trial) {
      const double t = rng.uniform(-absmax, absmax);
      double x = rng.uniform(-absmax, absmax);
      if (trial % 4 == 0) x = t;  // exercise the boundary itself
      if (trial % 4 == 1) x = t + rng.normal(0.0, 1e-6 * absmax);
      const std::int64_t raw = quantize_input_raw(x, scale);
      const bool hw_le = raw <= threshold_raw(t, scale);
      const bool float_le = quantize_input(x, scale) <= t;
      ASSERT_EQ(hw_le, float_le)
          << "absmax=" << absmax << " t=" << t << " x=" << x;
    }
  }
}

// ---------------------------------------------------------------------------
// Builder validation: a Netlist that constructs is well-formed.

Netlist tiny() { return Netlist(2, 2); }

TEST(NetlistBuilder, InputValidatesFeatureIndex) {
  Netlist nl = tiny();
  EXPECT_NO_THROW((void)nl.input(1));
  EXPECT_THROW((void)nl.input(2), PreconditionError);
}

TEST(NetlistBuilder, CompareRequiresArithmeticOperands) {
  Netlist nl = tiny();
  const NetId a = nl.input(0);
  const NetId b = nl.constant(NetType::kQ16, q16_raw(1.0));
  const NetId bit = nl.cmp_le(a, b);
  EXPECT_EQ(nl.node(bit).type, NetType::kBit);
  // A bit net is not a valid compare operand.
  EXPECT_THROW((void)nl.cmp_gt(bit, b), PreconditionError);
  // Dangling operand ids are rejected.
  EXPECT_THROW((void)nl.cmp_le(a, static_cast<NetId>(99)), PreconditionError);
}

TEST(NetlistBuilder, MuxRequiresBitSelectAndMatchingArms) {
  Netlist nl = tiny();
  const NetId a = nl.input(0);
  const NetId t = nl.constant(NetType::kQ16, 0);
  const NetId sel = nl.cmp_gt(a, t);
  const NetId c0 = nl.class_constant(0);
  const NetId c1 = nl.class_constant(1);
  EXPECT_NO_THROW((void)nl.mux(sel, c1, c0));
  // Select must be a bit; arms must share a type.
  EXPECT_THROW((void)nl.mux(a, c1, c0), PreconditionError);
  EXPECT_THROW((void)nl.mux(sel, c1, a), PreconditionError);
}

TEST(NetlistBuilder, ClassConstantValidatesLabel) {
  Netlist nl = tiny();
  EXPECT_NO_THROW((void)nl.class_constant(1));
  EXPECT_THROW((void)nl.class_constant(2), PreconditionError);
}

TEST(NetlistBuilder, ArgmaxRejectsMoreScoresThanClasses) {
  Netlist nl(2, 3);
  std::vector<NetId> scores;
  for (int c = 0; c < 3; ++c)
    scores.push_back(nl.constant(NetType::kWide, c));
  EXPECT_NO_THROW((void)nl.argmax(scores));
  scores.push_back(nl.constant(NetType::kWide, 3));
  EXPECT_THROW((void)nl.argmax(scores), PreconditionError);
  EXPECT_THROW((void)nl.argmax({}), PreconditionError);
}

TEST(NetlistBuilder, OutputRequiresClassNetExactlyOnce) {
  Netlist nl = tiny();
  EXPECT_FALSE(nl.has_output());
  EXPECT_THROW((void)nl.output(), PreconditionError);
  const NetId score = nl.input(0);
  EXPECT_THROW(nl.set_output(score), PreconditionError);  // not kClass
  const NetId cls = nl.class_constant(0);
  nl.set_output(cls);
  EXPECT_TRUE(nl.has_output());
  EXPECT_THROW(nl.set_output(cls), PreconditionError);  // only once
}

TEST(NetlistBuilder, LutRomValidatesTableAndAddress) {
  Netlist nl = tiny();
  const NetId addr = nl.input(0);
  LutRom rom;
  rom.values.assign(256, 0);
  const std::uint32_t table = nl.add_lut(std::move(rom));
  const NetId out = nl.lut_rom(table, addr);
  EXPECT_EQ(nl.node(out).type, NetType::kWide);
  EXPECT_THROW((void)nl.lut_rom(table + 1, addr), PreconditionError);
  // ROM sizes must be a non-empty power of two (addressable by shift).
  LutRom bad;
  bad.values.assign(100, 0);
  EXPECT_THROW((void)nl.add_lut(std::move(bad)), PreconditionError);
}

TEST(NetlistBuilder, ClassBitsIsCeilLog2) {
  EXPECT_EQ(Netlist(1, 2).class_bits(), 1u);
  EXPECT_EQ(Netlist(1, 3).class_bits(), 2u);
  EXPECT_EQ(Netlist(1, 4).class_bits(), 2u);
  EXPECT_EQ(Netlist(1, 5).class_bits(), 3u);
}

// ---------------------------------------------------------------------------
// Cost / latency annotations.

TEST(NetlistCost, ReductionsPriceNMinusOneStagesAtLogDepth) {
  Netlist nl(1, 4);
  std::vector<NetId> scores;
  for (int c = 0; c < 4; ++c)
    scores.push_back(nl.constant(NetType::kWide, c));
  const NetId amax = nl.argmax(scores);
  const ResourceCost cost = nl.node_cost(amax);
  const ResourceCost one_stage = hw_op_cost(HwOp::kArgmaxStage);
  EXPECT_EQ(cost.luts, 3 * one_stage.luts);  // n-1 stages
  // Balanced tree: ceil(log2 4) = 2 levels of argmax stages.
  EXPECT_EQ(nl.node_latency(amax), 2u * hw_op_latency(HwOp::kArgmaxStage));
}

TEST(NetlistCost, TotalsSumTheInstantiatedNets) {
  Netlist nl = tiny();
  const NetId a = nl.input(0);
  const NetId t = nl.constant(NetType::kQ16, q16_raw(0.5));
  const NetId sel = nl.cmp_le(a, t);
  const NetId decision = nl.mux(sel, nl.class_constant(0),
                                nl.class_constant(1));
  nl.set_output(decision);
  const ResourceCost total = nl.total_resources();
  EXPECT_GT(total.luts + total.ffs, 0u);
  EXPECT_GT(nl.total_energy_pj(), 0.0);
  EXPECT_EQ(nl.count_ops(NetOp::kMux), 1u);
  EXPECT_EQ(nl.count_ops(NetOp::kCmpLe), 1u);
}

// ---------------------------------------------------------------------------
// Scheduling (Netlist::schedule): the ASAP critical path with no caps, a
// resource-constrained list schedule over shared operator pools otherwise.

/// x * c: one multiplier net fed by the single input port.
NetId mul_of(Netlist& nl, NetId x) {
  return nl.mul(x, nl.constant(NetType::kWide, 3), 0);
}

TEST(Dataflow, InputsAreFree) {
  Netlist nl(2, 2);
  nl.input(0);
  nl.input(1);
  EXPECT_EQ(nl.num_nodes(), 2u);
  EXPECT_EQ(nl.total_resources().luts, 0u);
  EXPECT_EQ(nl.total_energy_pj(), 0.0);
  EXPECT_EQ(nl.schedule().latency_cycles, 0u);
}

TEST(Dataflow, SingleOpLatency) {
  Netlist nl = tiny();
  mul_of(nl, nl.input(0));
  EXPECT_EQ(nl.schedule().latency_cycles, hw_op_latency(HwOp::kMul));
}

TEST(Dataflow, ChainLatencyIsSum) {
  Netlist nl = tiny();
  const NetId m = mul_of(nl, nl.input(0));                       // 3 cycles
  const NetId a = nl.add(m, nl.constant(NetType::kWide, 1));     // 1 cycle
  nl.cmp_le(a, nl.constant(NetType::kWide, 0));                  // 1 cycle
  EXPECT_EQ(nl.schedule().latency_cycles, 5u);
}

TEST(Dataflow, ParallelOpsShareCriticalPath) {
  Netlist nl = tiny();
  const NetId in = nl.input(0);
  for (int i = 0; i < 16; ++i) mul_of(nl, in);
  // 16 parallel multiplies: still just one mul latency.
  EXPECT_EQ(nl.schedule().latency_cycles, hw_op_latency(HwOp::kMul));
  EXPECT_EQ(nl.count_ops(NetOp::kMul), 16u);
}

TEST(Dataflow, ResourcesSumOverOps) {
  Netlist nl = tiny();
  const NetId in = nl.input(0);
  mul_of(nl, in);
  mul_of(nl, in);
  nl.add(in, in);
  const ResourceCost total = nl.total_resources();
  EXPECT_EQ(total.dsps, 2 * hw_op_cost(HwOp::kMul).dsps);
  EXPECT_EQ(total.luts,
            2 * hw_op_cost(HwOp::kMul).luts + hw_op_cost(HwOp::kAdd).luts);
}

TEST(Dataflow, EnergySumsOverOps) {
  Netlist nl = tiny();
  const NetId in = nl.input(0);
  mul_of(nl, in);
  nl.add(in, in);
  EXPECT_DOUBLE_EQ(nl.total_energy_pj(), hw_op_energy_pj(HwOp::kMul) +
                                             hw_op_energy_pj(HwOp::kAdd));
}

TEST(Dataflow, UnknownDependencyThrows) {
  Netlist nl = tiny();
  const NetId in = nl.input(0);
  EXPECT_THROW((void)nl.add(in, 42), PreconditionError);
}

TEST(Dataflow, ConstrainedScheduleNoWorseThanSerial) {
  Netlist nl = tiny();
  const NetId in = nl.input(0);
  for (int i = 0; i < 8; ++i) mul_of(nl, in);
  const Schedule unconstrained = nl.schedule();
  const Schedule constrained = nl.schedule({.multipliers = 1});
  // One multiplier for 8 ops: fully serialized.
  EXPECT_GE(constrained.latency_cycles, 8 * hw_op_latency(HwOp::kMul));
  EXPECT_GT(constrained.latency_cycles, unconstrained.latency_cycles);
  // Capping a pool can only lengthen the schedule, never shorten it.
  for (const OperatorAllocation alloc :
       {OperatorAllocation{.adders = 1}, OperatorAllocation{.comparators = 1},
        OperatorAllocation{.multipliers = 3, .adders = 1}})
    EXPECT_GE(nl.schedule(alloc).latency_cycles,
              unconstrained.latency_cycles);
}

TEST(Dataflow, MoreOperatorsReduceLatency) {
  Netlist nl = tiny();
  const NetId in = nl.input(0);
  std::vector<NetId> products;
  for (int i = 0; i < 12; ++i) products.push_back(mul_of(nl, in));
  // An adder chain over the products gives the adder pool work too.
  NetId sum = products.front();
  for (std::size_t i = 1; i < products.size(); ++i)
    sum = nl.add(sum, products[i]);
  std::uint32_t previous = ~0u;
  for (std::uint32_t muls = 1; muls <= 12; ++muls) {
    const std::uint32_t latency =
        nl.schedule({.multipliers = muls}).latency_cycles;
    EXPECT_LE(latency, previous) << muls << " multipliers";
    previous = latency;
  }
  EXPECT_GT(nl.schedule({.multipliers = 1}).latency_cycles,
            nl.schedule({.multipliers = 4}).latency_cycles);
  EXPECT_EQ(nl.schedule({.multipliers = 12}).latency_cycles,
            nl.schedule().latency_cycles);
}

TEST(Dataflow, ConstrainedRespectsDependencies) {
  Netlist nl = tiny();
  const NetId in = nl.input(0);
  const NetId m1 = mul_of(nl, in);
  const NetId m2 = mul_of(nl, m1);
  const NetId a = nl.add(m2, m1);
  for (const OperatorAllocation alloc :
       {OperatorAllocation{}, OperatorAllocation{.multipliers = 1},
        OperatorAllocation{.multipliers = 2, .adders = 1}}) {
    const Schedule sched = nl.schedule(alloc);
    for (NetId id = 0; id < nl.num_nodes(); ++id)
      for (NetId arg : nl.node(id).args)
        EXPECT_GE(sched.start_cycle[id],
                  sched.start_cycle[arg] + nl.node_latency(arg));
    EXPECT_EQ(sched.latency_cycles,
              sched.start_cycle[a] + hw_op_latency(HwOp::kAdd));
  }
}

TEST(Dataflow, UnlimitedPoolsMatchAsap) {
  Netlist nl = tiny();
  const NetId m = mul_of(nl, nl.input(0));
  LutRom rom;
  rom.values.assign(4, 0);
  const NetId s = nl.lut_rom(nl.add_lut(rom), m);
  nl.add(s, m);
  // No caps: every net starts the cycle its last operand is registered.
  const Schedule sched = nl.schedule();
  for (NetId id = 0; id < nl.num_nodes(); ++id) {
    std::uint32_t ready = 0;
    for (NetId arg : nl.node(id).args)
      ready = std::max(ready, sched.start_cycle[arg] + nl.node_latency(arg));
    EXPECT_EQ(sched.start_cycle[id], ready) << "net " << id;
  }
  EXPECT_EQ(sched.latency_cycles, hw_op_latency(HwOp::kMul) +
                                      hw_op_latency(HwOp::kSigmoidLut) +
                                      hw_op_latency(HwOp::kAdd));
}

TEST(Dataflow, ZeroAllocationThrows) {
  Netlist nl = tiny();
  mul_of(nl, nl.input(0));
  EXPECT_THROW((void)nl.schedule({.multipliers = 0}), PreconditionError);
  EXPECT_THROW((void)nl.total_resources({.adders = 0}), PreconditionError);
}

}  // namespace
}  // namespace hmd::hw
