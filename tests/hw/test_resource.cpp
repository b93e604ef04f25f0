#include "hw/resource.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hmd::hw {
namespace {

TEST(ResourceCost, AdditionAccumulates) {
  ResourceCost a{.luts = 10, .ffs = 20, .dsps = 1, .brams = 0};
  ResourceCost b{.luts = 5, .ffs = 5, .dsps = 2, .brams = 1};
  a += b;
  EXPECT_EQ(a.luts, 15u);
  EXPECT_EQ(a.ffs, 25u);
  EXPECT_EQ(a.dsps, 3u);
  EXPECT_EQ(a.brams, 1u);
}

TEST(ResourceCost, ScalingMultiplies) {
  const ResourceCost c = ResourceCost{.luts = 3, .ffs = 2}.scaled(4);
  EXPECT_EQ(c.luts, 12u);
  EXPECT_EQ(c.ffs, 8u);
}

TEST(ResourceCost, SliceEquivalentWeighsDspsAndBrams) {
  const ResourceCost logic{.luts = 400, .ffs = 0};
  const ResourceCost dsp{.luts = 0, .ffs = 0, .dsps = 2};
  const ResourceCost bram{.luts = 0, .ffs = 0, .dsps = 0, .brams = 1};
  EXPECT_DOUBLE_EQ(logic.equivalent_slices(), 100.0);
  EXPECT_DOUBLE_EQ(dsp.equivalent_slices(), 100.0);
  EXPECT_DOUBLE_EQ(bram.equivalent_slices(), 100.0);
}

TEST(ResourceCost, SliceEquivalentUsesMaxOfLutFf) {
  const ResourceCost ff_heavy{.luts = 4, .ffs = 80};
  EXPECT_DOUBLE_EQ(ff_heavy.equivalent_slices(), 10.0);
}

TEST(OpTable, AllOpsHaveNamesAndCosts) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(HwOp::kCount); ++i) {
    const auto op = static_cast<HwOp>(i);
    EXPECT_FALSE(hw_op_name(op).empty());
    EXPECT_GE(hw_op_energy_pj(op), 0.0);
  }
}

TEST(OpTable, MultiplierIsDspMapped) {
  EXPECT_GT(hw_op_cost(HwOp::kMul).dsps, 0u);
  EXPECT_EQ(hw_op_cost(HwOp::kCompare).dsps, 0u);
}

TEST(OpTable, LutOpsAreBramBacked) {
  EXPECT_GT(hw_op_cost(HwOp::kSigmoidLut).brams, 0u);
  EXPECT_GT(hw_op_cost(HwOp::kGaussianLut).brams, 0u);
}

TEST(OpTable, MultiplierCostsMoreThanComparator) {
  EXPECT_GT(hw_op_cost(HwOp::kMul).equivalent_slices(),
            hw_op_cost(HwOp::kCompare).equivalent_slices() * 10);
  EXPECT_GT(hw_op_latency(HwOp::kMul), hw_op_latency(HwOp::kCompare));
  EXPECT_GT(hw_op_energy_pj(HwOp::kMul), hw_op_energy_pj(HwOp::kCompare));
}

TEST(OpTable, MuxIsOneRegisteredCycle) {
  // Selection chains (trees, rule lists) are pipelined one level per cycle,
  // so decision depth translates into latency.
  EXPECT_EQ(hw_op_latency(HwOp::kMux2), 1u);
}

}  // namespace
}  // namespace hmd::hw
