// Area-latency design-space exploration.
//
// The thesis synthesizes each classifier once (fully parallel); a real HLS
// flow explores the allocation space. This module re-schedules a compiled
// design over shared multiplier/adder/comparator pools
// (CompiledDesign::report(OperatorAllocation)) and returns the
// Pareto-optimal (area, latency) design points — the curve an implementer
// actually chooses from.
#pragma once

#include <vector>

#include "hw/compile.hpp"

namespace hmd::hw {

/// One explored design point.
struct DesignPoint {
  OperatorAllocation allocation;  ///< empty optionals = unbounded
  double area_slices = 0.0;
  std::uint32_t latency_cycles = 0;
  bool pareto_optimal = false;
};

/// Exploration controls.
struct ParetoOptions {
  /// Candidate pool sizes tried for each operator class (also combined).
  std::vector<std::uint32_t> pool_sizes = {1, 2, 4, 8, 16, 32};
};

/// Sweep operator allocations for `design`; the distinct (area, latency)
/// points are returned, sorted by area, with Pareto-optimal ones marked.
/// The fully parallel point (empty allocation) is always among them and
/// is exactly design.report().
std::vector<DesignPoint> explore_design_space(const CompiledDesign& design,
                                              const ParetoOptions& options = {});

/// Filter to the Pareto-optimal subset (sorted by area ascending).
std::vector<DesignPoint> pareto_front(std::vector<DesignPoint> points);

}  // namespace hmd::hw
