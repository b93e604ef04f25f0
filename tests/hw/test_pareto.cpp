#include "hw/pareto.hpp"

#include <gtest/gtest.h>

#include "hw/netlist_sim.hpp"
#include "ml/registry.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::hw {
namespace {

CompiledDesign compile_scheme(const std::string& scheme,
                              const ml::Dataset& d) {
  auto clf = ml::make_classifier(scheme);
  clf->train(d);
  return compile(*clf, {.num_features = d.num_features()});
}

std::vector<DesignPoint> explore_mlp() {
  static const std::vector<DesignPoint> points = explore_design_space(
      compile_scheme("MLP", ml::testdata::separable_binary()));
  return points;
}

TEST(Pareto, ProducesMultiplePoints) {
  const auto points = explore_mlp();
  EXPECT_GE(points.size(), 5u);
}

TEST(Pareto, PointsSortedByArea) {
  const auto points = explore_mlp();
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].area_slices, points[i - 1].area_slices);
}

TEST(Pareto, FrontIsMonotoneTradeoff) {
  const auto front = pareto_front(explore_mlp());
  ASSERT_GE(front.size(), 2u);
  // Along the front: more area must buy strictly less latency.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].area_slices, front[i - 1].area_slices);
    EXPECT_LT(front[i].latency_cycles, front[i - 1].latency_cycles);
  }
}

TEST(Pareto, NoFrontPointIsDominated) {
  const auto points = explore_mlp();
  const auto front = pareto_front(points);
  for (const auto& f : front) {
    for (const auto& p : points) {
      const bool dominates =
          p.area_slices <= f.area_slices &&
          p.latency_cycles <= f.latency_cycles &&
          (p.area_slices < f.area_slices ||
           p.latency_cycles < f.latency_cycles);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Pareto, UnboundedPointHasLowestLatency) {
  const auto points = explore_mlp();
  std::uint32_t min_latency = ~0u;
  for (const auto& p : points)
    min_latency = std::min(min_latency, p.latency_cycles);
  // The fully-parallel design achieves the minimum latency.
  bool found = false;
  for (const auto& p : points) {
    if (!p.allocation.multipliers.has_value() &&
        p.latency_cycles == min_latency)
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Pareto, TinyClassifierCollapsesToOnePoint) {
  // A stump has no shared-pool pressure: every allocation gives the same
  // design, so the explored set collapses after deduplication.
  const auto points = explore_design_space(
      compile_scheme("DecisionStump", ml::testdata::separable_binary()));
  EXPECT_LE(points.size(), 3u);
  EXPECT_TRUE(points.front().pareto_optimal);
}

TEST(Pareto, RejectsEmptyPoolList) {
  const CompiledDesign svm =
      compile_scheme("SVM", ml::testdata::separable_binary());
  ParetoOptions options;
  options.pool_sizes.clear();
  EXPECT_THROW((void)explore_design_space(svm, options),
               hmd::PreconditionError);
}

TEST(Pareto, UnboundedAllocationReproducesTheReport) {
  // One cost model: an allocation with no caps must reproduce report()
  // field for field, and the sweep's fully parallel point must be that
  // same design — no second estimator may drift from the netlist.
  const auto d = ml::testdata::three_class();
  for (const std::string& scheme : ml::rtl_schemes()) {
    SCOPED_TRACE(scheme);
    const CompiledDesign design = compile_scheme(scheme, d);
    const Netlist& nl = design.netlist();
    const SynthesisReport full = design.report();
    EXPECT_EQ(full.latency_cycles,
              NetlistSimulator(design).cycles_per_window());
    // Caps at or above each pool's demand bind nothing either.
    const auto demand = [&nl](std::initializer_list<NetOp> ops) {
      std::uint32_t n = 1;
      for (NetOp op : ops) n += static_cast<std::uint32_t>(nl.count_ops(op));
      return n;
    };
    for (const OperatorAllocation& alloc :
         {OperatorAllocation{},
          OperatorAllocation{
              .multipliers = demand({NetOp::kMul}),
              .adders = demand({NetOp::kAdd}),
              .comparators = demand({NetOp::kCmpLe, NetOp::kCmpGt})}}) {
      const SynthesisReport r = design.report(alloc);
      EXPECT_EQ(r.latency_cycles, full.latency_cycles);
      EXPECT_EQ(r.resources.luts, full.resources.luts);
      EXPECT_EQ(r.resources.ffs, full.resources.ffs);
      EXPECT_EQ(r.resources.dsps, full.resources.dsps);
      EXPECT_EQ(r.resources.brams, full.resources.brams);
      EXPECT_EQ(r.energy_per_inference_pj, full.energy_per_inference_pj);
    }

    bool found = false;
    for (const DesignPoint& p : explore_design_space(design)) {
      if (p.allocation.multipliers || p.allocation.adders ||
          p.allocation.comparators)
        continue;
      found = true;
      EXPECT_EQ(p.latency_cycles, full.latency_cycles);
      EXPECT_EQ(p.area_slices, full.area_slices());
    }
    EXPECT_TRUE(found) << "fully parallel point missing";
  }
}

}  // namespace
}  // namespace hmd::hw
