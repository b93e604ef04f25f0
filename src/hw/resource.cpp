#include "hw/resource.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace hmd::hw {

ResourceCost& ResourceCost::operator+=(const ResourceCost& other) {
  luts += other.luts;
  ffs += other.ffs;
  dsps += other.dsps;
  brams += other.brams;
  return *this;
}

ResourceCost ResourceCost::scaled(std::uint64_t n) const {
  return {luts * n, ffs * n, dsps * n, brams * n};
}

double ResourceCost::equivalent_slices() const {
  // 7-series slice: 4 LUTs + 8 FFs.
  const double logic_slices =
      std::max(static_cast<double>(luts) / 4.0, static_cast<double>(ffs) / 8.0);
  return logic_slices + 50.0 * static_cast<double>(dsps) +
         100.0 * static_cast<double>(brams);
}

namespace {

struct OpInfo {
  std::string_view name;
  ResourceCost cost;
  std::uint32_t latency;
  double energy_pj;
};

constexpr std::size_t kNumOps = static_cast<std::size_t>(HwOp::kCount);

const std::array<OpInfo, kNumOps>& op_table() {
  static const std::array<OpInfo, kNumOps> kTable = {{
      // name            {luts, ffs, dsps, brams} latency energy
      {"compare",        {16, 1, 0, 0},   1, 0.8},
      {"add",            {32, 32, 0, 0},  1, 1.2},
      {"mul",            {40, 64, 3, 0},  3, 6.5},
      {"mux2",           {16, 8, 0, 0},   1, 0.3},
      {"and",            {4, 1, 0, 0},    1, 0.2},
      {"sigmoid_lut",    {24, 32, 0, 1},  2, 2.5},
      {"gaussian_lut",   {24, 32, 0, 1},  2, 2.5},
      {"argmax_stage",   {36, 33, 0, 0},  1, 1.1},
      {"register",       {0, 32, 0, 0},   1, 0.4},
  }};
  return kTable;
}

const OpInfo& info_of(HwOp op) {
  const auto i = static_cast<std::size_t>(op);
  HMD_REQUIRE(i < kNumOps, "invalid hardware operator");
  return op_table()[i];
}

}  // namespace

std::string_view hw_op_name(HwOp op) { return info_of(op).name; }
ResourceCost hw_op_cost(HwOp op) { return info_of(op).cost; }
std::uint32_t hw_op_latency(HwOp op) { return info_of(op).latency; }
double hw_op_energy_pj(HwOp op) { return info_of(op).energy_pj; }

}  // namespace hmd::hw
