// VerilogBackend: Verilog modules and self-checking testbenches rendered
// from compiled netlists. Goldens are FNV-1a fingerprints of the full
// emitted text per scheme — when an intentional emission change trips one,
// re-pin it with the new value the failure message prints.
#include "hw/verilog_backend.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "hw/backend.hpp"
#include "hw/compile.hpp"
#include "hw/fixed_point_eval.hpp"
#include "ml/decision_stump.hpp"
#include "ml/j48.hpp"
#include "ml/jrip.hpp"
#include "ml/registry.hpp"
#include "ml/svm.hpp"
#include "tests/hw/rtl_fingerprint.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::hw {
namespace {

using ml::testdata::separable_binary;
using ml::testdata::three_class;

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

/// compile() + VerilogBackend for a `num_features`-port module.
std::string verilog_of(const ml::Classifier& clf, std::size_t num_features,
                       const std::string& module_name) {
  return compile(clf, {.num_features = num_features,
                       .module_name = module_name})
      .emit(VerilogBackend());
}

/// Self-checking testbench on a grid calibrated from `test`, exactly as
/// evaluate_fixed_point calibrates.
std::string testbench_of(const ml::Classifier& clf, const ml::Dataset& test,
                         std::size_t num_vectors,
                         const std::string& module_name) {
  const CompiledDesign design =
      compile(clf, {.num_features = test.num_features(),
                    .module_name = module_name,
                    .feature_absmax = calibrate_feature_absmax(test)});
  return VerilogBackend().emit_testbench(design, test, num_vectors);
}

/// Structural sanity every emitted module must satisfy.
void expect_well_formed(const std::string& rtl, std::size_t num_features) {
  EXPECT_EQ(count_occurrences(rtl, "module "), 1u);
  EXPECT_EQ(count_occurrences(rtl, "endmodule"), 1u);
  // Every `begin` has an `end`; `endmodule` accounts for the extra one.
  EXPECT_EQ(count_occurrences(rtl, "begin") + 1u,
            count_occurrences(rtl, "end"));
  for (std::size_t f = 0; f < num_features; ++f)
    EXPECT_NE(rtl.find("input  wire signed [31:0] f" + std::to_string(f)),
              std::string::npos)
        << "missing port f" << f;
  EXPECT_NE(rtl.find("class_out"), std::string::npos);
  EXPECT_NE(rtl.find("valid_out"), std::string::npos);
  EXPECT_NE(rtl.find("always @(posedge clk)"), std::string::npos);
}

/// Deterministic per-scheme module for the golden tests: binary schemes
/// train on separable_binary(), multiclass-capable ones on three_class().
std::string golden_rtl(const std::string& scheme) {
  const auto data = scheme == "MLR" || scheme == "SVM" || scheme == "MLP" ||
                            scheme == "NaiveBayes"
                        ? three_class()
                        : separable_binary();
  auto clf = ml::make_classifier(scheme);
  clf->train(data);
  CompileOptions opts;
  opts.num_features = data.num_features();
  opts.module_name = "golden_det";
  return compile(*clf, std::move(opts)).emit(VerilogBackend());
}

TEST(RtlEmitter, GoldenFingerprintsPerScheme) {
  const std::map<std::string, std::uint64_t> expected = {
      {"OneR", 0x05193953195e23f8ull},
      {"DecisionStump", 0xfaea3a0dd8d6dfa6ull},
      {"J48", 0xd70b9314b52e011aull},
      {"JRip", 0x890b4574dc6f9afdull},
      {"NaiveBayes", 0x5253cb59bdd65568ull},
      {"MLR", 0x46602253249d643dull},
      {"SVM", 0x8a250bf499b34a8dull},
      {"MLP", 0xcbfa95b2b486bccfull},
  };
  for (const std::string& scheme : ml::rtl_schemes()) {
    ASSERT_TRUE(expected.count(scheme)) << "unpinned scheme " << scheme;
    const std::uint64_t got = testutil::fnv1a(golden_rtl(scheme));
    EXPECT_EQ(got, expected.at(scheme))
        << scheme << ": re-pin with 0x" << std::hex << got << "ull";
  }
}

TEST(RtlEmitter, AllRtlSchemesEmitWellFormedModules) {
  const auto d = three_class();
  for (const std::string& scheme : ml::rtl_schemes()) {
    SCOPED_TRACE(scheme);
    auto clf = ml::make_classifier(scheme);
    clf->train(d);
    const std::string rtl = verilog_of(*clf, d.num_features(), "det");
    expect_well_formed(rtl, d.num_features());
    EXPECT_NE(rtl.find("// Scheme: " + scheme), std::string::npos);
  }
}

TEST(RtlEmitter, StumpComparesTheLearnedSplit) {
  const auto d = ml::testdata::single_feature_rule(300);
  ml::DecisionStump stump;
  stump.train(d);
  const std::string rtl = verilog_of(stump, 2, "stump_detector");
  expect_well_formed(rtl, 2);
  // The split feature's port feeds a comparator somewhere in the netlist.
  EXPECT_GE(count_occurrences(rtl, " <= "), 1u);
  EXPECT_NE(rtl.find("f" + std::to_string(stump.split_feature()) + "[31]"),
            std::string::npos);
}

TEST(RtlEmitter, JRipEmitsOneConjunctionPerMultiConditionRule) {
  const auto d = separable_binary();
  ml::JRip rip;
  rip.train(d);
  const std::string rtl = verilog_of(rip, d.num_features(), "jrip_det");
  expect_well_formed(rtl, d.num_features());
  // An n-condition conjunction renders as n-1 "&&" joins.
  std::size_t joins = 0;
  for (const auto& rule : rip.rules())
    if (rule.conditions.size() > 1) joins += rule.conditions.size() - 1;
  EXPECT_EQ(count_occurrences(rtl, " && "), joins);
}

TEST(RtlEmitter, MulticlassEmitsArgmaxChain) {
  const auto d = three_class();
  auto mlr = ml::make_classifier("MLR");
  mlr->train(d);
  const std::string rtl = verilog_of(*mlr, d.num_features(), "mlr_det");
  expect_well_formed(rtl, d.num_features());
  EXPECT_NE(rtl.find("argmax chain"), std::string::npos);
  // 3 classes need 2 selector bits.
  EXPECT_NE(rtl.find("output reg  [1:0] class_out"), std::string::npos);
}

TEST(RtlEmitter, LutSchemesEmitRoms) {
  const auto d = three_class();
  auto nb = ml::make_classifier("NaiveBayes");
  nb->train(d);
  const std::string nb_rtl = verilog_of(*nb, d.num_features(), "nb_det");
  EXPECT_NE(nb_rtl.find("Gaussian ROM"), std::string::npos);
  auto mlp = ml::make_classifier("MLP");
  mlp->train(d);
  const std::string mlp_rtl = verilog_of(*mlp, d.num_features(), "mlp_det");
  EXPECT_NE(mlp_rtl.find("sigmoid ROM"), std::string::npos);
}

TEST(RtlEmitter, UnsupportedSchemesThrow) {
  const auto d = separable_binary();
  for (const auto& scheme : {"ZeroR", "IBk", "Bagging"}) {
    auto clf = ml::make_classifier(scheme);
    clf->train(d);
    EXPECT_THROW((void)verilog_of(*clf, d.num_features(), "det"),
                 hmd::PreconditionError)
        << scheme;
  }
}

TEST(RtlEmitter, FeatureBeyondPortsThrows) {
  const auto d = separable_binary();  // 4 features
  ml::DecisionStump stump;
  stump.train(d);
  if (stump.split_feature() > 0)
    EXPECT_THROW(
        (void)verilog_of(stump, stump.split_feature(), "det"),
        hmd::PreconditionError);
}

TEST(RtlEmitter, ModuleNameHonored) {
  const auto d = separable_binary();
  ml::DecisionStump stump;
  stump.train(d);
  const std::string rtl = verilog_of(stump, 4, "my_special_detector");
  EXPECT_NE(rtl.find("module my_special_detector ("), std::string::npos);
}

TEST(RtlEmitter, DeterministicOutput) {
  const auto d = separable_binary();
  ml::JRip rip;
  rip.train(d);
  EXPECT_EQ(verilog_of(rip, 4, "a"), verilog_of(rip, 4, "a"));
}

TEST(RtlTestbench, SelfCheckingStructure) {
  const auto d = separable_binary();
  ml::JRip rip;
  rip.train(d);
  const std::string tb = testbench_of(rip, d, 10, "jrip_det");
  EXPECT_NE(tb.find("module jrip_det_tb;"), std::string::npos);
  EXPECT_NE(tb.find("jrip_det dut ("), std::string::npos);
  EXPECT_EQ(count_occurrences(tb, "check("), 10u);  // one call per vector
  EXPECT_NE(tb.find("$finish"), std::string::npos);
  EXPECT_NE(tb.find("PASS"), std::string::npos);
}

TEST(RtlTestbench, ExpectedValuesMatchSimulatorDecisions) {
  const auto d = separable_binary();
  ml::DecisionStump stump;
  stump.train(d);
  const std::string tb = testbench_of(stump, d, 5, "det");
  // Expected classes are the netlist simulator's decisions on the
  // dataset-calibrated grid — for an exact scheme that is also the C++
  // model's prediction over the quantized features.
  CompileOptions opts;
  opts.num_features = d.num_features();
  opts.module_name = "det";
  opts.feature_absmax = calibrate_feature_absmax(d);
  const CompiledDesign design = compile(stump, std::move(opts));
  const auto vectors = testbench_vectors(design, d, 5);
  ASSERT_EQ(vectors.size(), 5u);
  for (const TestVector& v : vectors) {
    const std::string expected =
        "check(1'd" + std::to_string(v.expected) + ")";
    EXPECT_NE(tb.find(expected), std::string::npos) << expected;
  }
}

TEST(RtlTestbench, ClampsVectorCountToTestSet) {
  const auto d = separable_binary(3);  // 6 rows total
  ml::DecisionStump stump;
  stump.train(d);
  const std::string tb = testbench_of(stump, d, 1000, "det");
  EXPECT_EQ(count_occurrences(tb, "check("), d.num_instances());
}

}  // namespace
}  // namespace hmd::hw
