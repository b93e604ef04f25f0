#include "hw/compile.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/fixed_point_eval.hpp"
#include "ml/decision_stump.hpp"
#include "ml/j48.hpp"
#include "ml/jrip.hpp"
#include "ml/knn.hpp"
#include "ml/mlp.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/one_r.hpp"
#include "ml/registry.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::hw {
namespace {

using ml::testdata::separable_binary;
using ml::testdata::three_class;

CompiledDesign compile_for(const ml::Classifier& clf,
                           std::size_t num_features) {
  return compile(clf, {.num_features = num_features});
}

std::size_t comparators(const Netlist& nl) {
  return nl.count_ops(NetOp::kCmpLe) + nl.count_ops(NetOp::kCmpGt);
}

TEST(Compile, SupportedSetAgreesWithTheRegistry) {
  // hw::compile_supported and ml::rtl_schemes() are two views of the same
  // contract; every scheme must land on the same side of both.
  const auto data = ml::testdata::separable_binary(60);
  for (const std::string& scheme : ml::known_schemes()) {
    auto clf = ml::make_classifier(scheme);
    clf->train(data);
    EXPECT_EQ(compile_supported(*clf), ml::is_rtl_scheme(scheme)) << scheme;
  }
}

TEST(Compile, TryCompileNamesTheUnsupportedScheme) {
  const auto data = ml::testdata::separable_binary(60);
  for (const std::string& scheme : {"ZeroR", "IBk", "AdaBoostM1"}) {
    auto clf = ml::make_classifier(scheme);
    clf->train(data);
    CompileOptions opts;
    opts.num_features = data.num_features();
    const auto result = try_compile(*clf, std::move(opts));
    ASSERT_FALSE(result.ok()) << scheme;
    EXPECT_EQ(result.error().code(), ErrCode::kPrecondition) << scheme;
    EXPECT_NE(result.error().message().find("no netlist lowering"),
              std::string::npos)
        << scheme << ": " << result.error().message();
  }
}

TEST(Compile, CompileThrowsWhereTryCompileReturns) {
  auto clf = ml::make_classifier("ZeroR");
  clf->train(ml::testdata::separable_binary(60));
  CompileOptions opts;
  opts.num_features = 4;
  EXPECT_THROW((void)compile(*clf, std::move(opts)), PreconditionError);
}

TEST(Compile, RejectsBadOptions) {
  const auto data = ml::testdata::separable_binary(60);
  auto clf = ml::make_classifier("J48");
  clf->train(data);
  {
    CompileOptions opts;  // num_features missing
    const auto result = try_compile(*clf, std::move(opts));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrCode::kPrecondition);
  }
  {
    CompileOptions opts;
    opts.num_features = data.num_features();
    opts.feature_absmax = {1.0};  // wrong arity for the port list
    EXPECT_FALSE(try_compile(*clf, std::move(opts)).ok());
  }
}

TEST(Compile, RejectsUntrainedModel) {
  auto clf = ml::make_classifier("MLR");
  CompileOptions opts;
  opts.num_features = 4;
  EXPECT_FALSE(try_compile(*clf, std::move(opts)).ok());
}

TEST(Compile, AllRtlSchemesLowerToAWellFormedNetlist) {
  const auto data = ml::testdata::three_class(60);
  for (const std::string& scheme : ml::rtl_schemes()) {
    SCOPED_TRACE(scheme);
    auto clf = ml::make_classifier(scheme);
    clf->train(data);
    CompileOptions opts;
    opts.num_features = data.num_features();
    const CompiledDesign design = compile(*clf, std::move(opts));
    EXPECT_EQ(design.scheme(), scheme);
    EXPECT_EQ(design.num_features(), data.num_features());
    EXPECT_EQ(design.num_classes(), data.num_classes());
    EXPECT_TRUE(design.netlist().has_output());
    EXPECT_GT(design.netlist().num_nodes(), 0u);
    EXPECT_EQ(design.feature_scales().size(), data.num_features());
  }
}

TEST(Compile, ModelDerivedAbsmaxIsDeterministic) {
  // The fpga serving tier compiles per shard; identical models must yield
  // identical grids or verdicts would depend on the shard count.
  const auto data = ml::testdata::separable_binary(80);
  auto clf = ml::make_classifier("SVM");
  clf->train(data);
  const auto a = model_feature_absmax(*clf, data.num_features());
  const auto b = model_feature_absmax(*clf, data.num_features());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), data.num_features());
  for (const double v : a) EXPECT_GT(v, 0.0);
}

TEST(Compile, ReportQuotesMeasuredNetlistNumbers) {
  const auto data = ml::testdata::separable_binary(80);
  auto clf = ml::make_classifier("MLR");
  clf->train(data);
  CompileOptions opts;
  opts.num_features = data.num_features();
  opts.clock_mhz = 100.0;
  const CompiledDesign design = compile(*clf, std::move(opts));
  const SynthesisReport report = design.report();
  EXPECT_EQ(report.design_name, "MLR");
  const ResourceCost total = design.netlist().total_resources();
  EXPECT_EQ(report.resources.luts, total.luts);
  EXPECT_EQ(report.resources.dsps, total.dsps);
  EXPECT_GT(report.latency_cycles, 0u);
  EXPECT_GT(report.energy_per_inference_pj, 0.0);
  EXPECT_GT(report.static_power_mw + report.dynamic_power_mw, 0.0);
}

TEST(Compile, DatasetPinnedGridMatchesCalibration) {
  const auto data = ml::testdata::separable_binary(60);
  auto clf = ml::make_classifier("DecisionStump");
  clf->train(data);
  const std::vector<double> absmax = calibrate_feature_absmax(data);
  CompileOptions opts;
  opts.num_features = data.num_features();
  opts.feature_absmax = absmax;
  const CompiledDesign design = compile(*clf, std::move(opts));
  ASSERT_EQ(design.feature_absmax(), absmax);
  for (std::size_t f = 0; f < absmax.size(); ++f)
    EXPECT_DOUBLE_EQ(design.feature_scales()[f], q16_input_scale(absmax[f]));
}

// ---------------------------------------------------------------------------
// Per-scheme lowering shapes, read off the compiled netlist and its report.

TEST(Lowering, OneRIsTiny) {
  ml::OneR model;
  const auto d = separable_binary();
  model.train(d);
  const CompiledDesign design = compile_for(model, d.num_features());
  EXPECT_EQ(design.netlist().count_ops(NetOp::kMul), 0u);
  // One comparator + one mux per interval boundary.
  EXPECT_EQ(comparators(design.netlist()), model.intervals().size() - 1);
  EXPECT_LE(design.report().area_slices(), 200.0);
}

TEST(Lowering, StumpIsOneComparator) {
  ml::DecisionStump model;
  const auto d = separable_binary();
  model.train(d);
  const CompiledDesign design = compile_for(model, d.num_features());
  const Netlist& nl = design.netlist();
  EXPECT_EQ(comparators(nl), 1u);
  EXPECT_EQ(nl.count_ops(NetOp::kMux), 1u);
}

TEST(Lowering, J48ComparatorPerInternalNode) {
  ml::J48 model;
  const auto d = separable_binary();
  model.train(d);
  const CompiledDesign design = compile_for(model, d.num_features());
  const Netlist& nl = design.netlist();
  EXPECT_EQ(comparators(nl), model.num_nodes() - model.num_leaves());
  EXPECT_EQ(nl.count_ops(NetOp::kMux), model.num_nodes() - model.num_leaves());
}

TEST(Lowering, DeeperTreeHasHigherLatency) {
  const auto d = ml::testdata::overlapping_binary(400);
  ml::J48 shallow({.min_leaf = 2, .max_depth = 2, .prune = false});
  ml::J48 deep({.min_leaf = 2, .max_depth = 12, .prune = false});
  shallow.train(d);
  deep.train(d);
  ASSERT_GT(deep.depth(), shallow.depth());
  EXPECT_LT(compile_for(shallow, 4).report().latency_cycles,
            compile_for(deep, 4).report().latency_cycles);
}

TEST(Lowering, JRipComparatorPerCondition) {
  ml::JRip model;
  const auto d = separable_binary();
  model.train(d);
  const CompiledDesign design = compile_for(model, d.num_features());
  const Netlist& nl = design.netlist();
  EXPECT_EQ(comparators(nl), model.total_conditions());
}

TEST(Lowering, NaiveBayesScalesWithClassesTimesFeatures) {
  ml::NaiveBayes model;
  const auto d = three_class();  // 3 classes x 5 features
  model.train(d);
  const CompiledDesign design = compile_for(model, d.num_features());
  const Netlist& nl = design.netlist();
  // One Gaussian log-density ROM per (class, feature), no multipliers.
  EXPECT_EQ(nl.count_ops(NetOp::kLutRom), 3u * 5u);
  EXPECT_EQ(nl.luts().size(), 3u * 5u);
  EXPECT_EQ(nl.count_ops(NetOp::kMul), 0u);
}

TEST(Lowering, LinearBankBinaryScoresBothClasses) {
  // The netlist scores every class row and argmaxes them, binary included:
  // 2 x d multipliers and one two-way argmax.
  const auto d = separable_binary();  // 4 features
  auto mlr = ml::make_classifier("MLR");
  mlr->train(d);
  const CompiledDesign design = compile_for(*mlr, d.num_features());
  const Netlist& nl = design.netlist();
  EXPECT_EQ(nl.count_ops(NetOp::kMul), 2u * 4u);
  EXPECT_EQ(nl.count_ops(NetOp::kArgmax), 1u);
  EXPECT_EQ(comparators(nl), 0u);
}

TEST(Lowering, LinearBankMulticlassUsesKHyperplanes) {
  const auto d = three_class();  // 3 classes x 5 features
  auto svm = ml::make_classifier("SVM");
  svm->train(d);
  const CompiledDesign design = compile_for(*svm, d.num_features());
  const Netlist& nl = design.netlist();
  EXPECT_EQ(nl.count_ops(NetOp::kMul), 3u * 5u);
  ASSERT_EQ(nl.count_ops(NetOp::kArgmax), 1u);
  for (NetId id = 0; id < nl.num_nodes(); ++id)
    if (nl.node(id).op == NetOp::kArgmax)
      EXPECT_EQ(nl.node_cost(id).luts,
                2u * hw_op_cost(HwOp::kArgmaxStage).luts);
}

TEST(Lowering, MlpDominatesEverything) {
  const auto d = separable_binary();
  ml::Mlp mlp({.epochs = 5});
  mlp.train(d);
  ml::OneR oner;
  oner.train(d);
  const SynthesisReport mlp_synth = compile_for(mlp, d.num_features()).report();
  const SynthesisReport oner_synth =
      compile_for(oner, d.num_features()).report();
  EXPECT_GT(mlp_synth.area_slices(), 50.0 * oner_synth.area_slices());
  EXPECT_GT(mlp_synth.latency_cycles, oner_synth.latency_cycles);
}

TEST(Lowering, MlpMultiplierCount) {
  const auto d = separable_binary();  // 4 features, 2 classes
  ml::Mlp mlp({.hidden_units = 6, .epochs = 3});
  mlp.train(d);
  const CompiledDesign design = compile_for(mlp, d.num_features());
  const Netlist& nl = design.netlist();
  // hidden: 6*4, output: 2*6 -> 36 multipliers; one sigmoid ROM lookup per
  // hidden unit, all reading a single shared table.
  EXPECT_EQ(nl.count_ops(NetOp::kMul), 36u);
  EXPECT_EQ(nl.count_ops(NetOp::kLutRom), 6u);
  EXPECT_EQ(nl.luts().size(), 1u);
}

TEST(Lowering, DispatchCoversAllSynthesizableSchemes) {
  const auto d = separable_binary();
  for (const std::string& scheme : ml::rtl_schemes()) {
    auto clf = ml::make_classifier(scheme);
    clf->train(d);
    const SynthesisReport report = compile_for(*clf, d.num_features()).report();
    EXPECT_GT(report.latency_cycles, 0u) << scheme;
    EXPECT_GT(report.area_slices(), 0.0) << scheme;
  }
}

TEST(Lowering, UnsupportedClassifierThrows) {
  ml::Knn knn;
  knn.train(separable_binary());
  EXPECT_THROW((void)compile_for(knn, 4), hmd::PreconditionError);
}

// ---------------------------------------------------------------------------
// SynthesisReport.

TEST(Synthesis, ReportFieldsConsistent) {
  const auto d = separable_binary();
  auto clf = ml::make_classifier("MLR");
  clf->train(d);
  const SynthesisReport r = compile_for(*clf, d.num_features()).report();
  EXPECT_EQ(r.design_name, "MLR");
  EXPECT_GT(r.latency_cycles, 0u);
  EXPECT_GT(r.area_slices(), 0.0);
  EXPECT_GT(r.total_power_mw(), 0.0);
  EXPECT_NEAR(r.latency_us(),
              static_cast<double>(r.latency_cycles) / r.clock_mhz, 1e-12);
  EXPECT_NE(r.to_string().find("MLR"), std::string::npos);
}

TEST(Synthesis, ResourceSharingTradesLatencyForArea) {
  const auto d = separable_binary();
  ml::Mlp mlp({.hidden_units = 8, .epochs = 3});
  mlp.train(d);
  const CompiledDesign design = compile_for(mlp, d.num_features());
  const SynthesisReport parallel = design.report();
  const SynthesisReport serial = design.report({.multipliers = 2});
  EXPECT_EQ(serial.resources.dsps, 2u * hw_op_cost(HwOp::kMul).dsps);
  EXPECT_LT(serial.resources.dsps, parallel.resources.dsps);
  EXPECT_GT(serial.latency_cycles, parallel.latency_cycles);
  // Sharing re-binds the same operations: energy per window is unchanged.
  EXPECT_DOUBLE_EQ(serial.energy_per_inference_pj,
                   parallel.energy_per_inference_pj);
}

TEST(Synthesis, FasterClockShortensLatency) {
  const auto d = separable_binary();
  auto clf = ml::make_classifier("SVM");
  clf->train(d);
  const SynthesisReport slow =
      compile(*clf, {.num_features = 4, .clock_mhz = 100.0}).report();
  const SynthesisReport fast =
      compile(*clf, {.num_features = 4, .clock_mhz = 200.0}).report();
  EXPECT_EQ(slow.latency_cycles, fast.latency_cycles);
  EXPECT_GT(slow.latency_us(), fast.latency_us());
}

}  // namespace
}  // namespace hmd::hw
