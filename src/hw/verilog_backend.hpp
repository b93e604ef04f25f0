// Verilog-2001 backend over the netlist IR: each net renders as one
// continuous assignment (compares, muxes, adds, 128-bit-intermediate
// multiplies) or one always block (argmax chains, LUT-ROM lookups), with
// this module shell:
//
//   module <name> (
//     input  wire clk, rst, valid_in,
//     input  wire signed [31:0] f0 .. f<d-1>,   // Q16.16 port raws
//     output reg  [<ceil(log2 k)>-1:0] class_out,
//     output reg  valid_out
//   );
//
// Combinational datapath, one output register stage.
#pragma once

#include "hw/backend.hpp"

namespace hmd::hw {

class VerilogBackend final : public Backend {
 public:
  std::string_view name() const override { return "verilog"; }
  std::string_view file_extension() const override { return ".v"; }
  std::string emit(const CompiledDesign& design) const override;
  std::string emit_testbench(const CompiledDesign& design,
                             const ml::Dataset& test,
                             std::size_t num_vectors) const override;
};

}  // namespace hmd::hw
