#include "hw/pareto.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hmd::hw {

namespace {

DesignPoint evaluate(const CompiledDesign& design,
                     const OperatorAllocation& alloc) {
  const SynthesisReport report = design.report(alloc);
  return {.allocation = alloc,
          .area_slices = report.area_slices(),
          .latency_cycles = report.latency_cycles,
          .pareto_optimal = false};
}

void mark_pareto(std::vector<DesignPoint>& points) {
  for (DesignPoint& p : points) {
    p.pareto_optimal = true;
    for (const DesignPoint& q : points) {
      const bool dominates =
          (q.area_slices <= p.area_slices &&
           q.latency_cycles <= p.latency_cycles) &&
          (q.area_slices < p.area_slices ||
           q.latency_cycles < p.latency_cycles);
      if (dominates) {
        p.pareto_optimal = false;
        break;
      }
    }
  }
}

}  // namespace

std::vector<DesignPoint> explore_design_space(const CompiledDesign& design,
                                              const ParetoOptions& options) {
  HMD_REQUIRE(!options.pool_sizes.empty(),
              "explore_design_space: no pool sizes");
  std::vector<DesignPoint> points;

  // Fully parallel reference point.
  points.push_back(evaluate(design, {}));

  // Shared-multiplier sweeps (the dominant cost), alone and with matched
  // adder/comparator pools.
  for (std::uint32_t m : options.pool_sizes) {
    points.push_back(evaluate(design, {.multipliers = m}));
    points.push_back(evaluate(
        design, {.multipliers = m, .adders = m, .comparators = m}));
  }

  // Stable, so deduplicating identical (area, latency) points keeps the
  // first one explored: the fully parallel point survives any allocation
  // whose caps do not bind.
  std::stable_sort(points.begin(), points.end(),
                   [](const DesignPoint& a, const DesignPoint& b) {
                     if (a.area_slices != b.area_slices)
                       return a.area_slices < b.area_slices;
                     return a.latency_cycles < b.latency_cycles;
                   });
  points.erase(std::unique(points.begin(), points.end(),
                           [](const DesignPoint& a, const DesignPoint& b) {
                             return a.area_slices == b.area_slices &&
                                    a.latency_cycles == b.latency_cycles;
                           }),
               points.end());
  mark_pareto(points);
  return points;
}

std::vector<DesignPoint> pareto_front(std::vector<DesignPoint> points) {
  mark_pareto(points);
  std::vector<DesignPoint> front;
  for (const DesignPoint& p : points)
    if (p.pareto_optimal) front.push_back(p);
  std::sort(front.begin(), front.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              return a.area_slices < b.area_slices;
            });
  return front;
}

}  // namespace hmd::hw
