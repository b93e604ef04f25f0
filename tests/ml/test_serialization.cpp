#include "ml/serialization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "ml/registry.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/error.hpp"

namespace hmd::ml {
namespace {

using namespace testdata;

/// Batch distributions of every row of `data`, as raw bit patterns.
std::vector<std::uint64_t> batch_bits(const Classifier& clf,
                                      const Dataset& data) {
  const std::size_t d = data.num_features();
  std::vector<double> flat;
  for (std::size_t i = 0; i < data.num_instances(); ++i) {
    const auto row = data.features_of(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  std::vector<double> dist(data.num_instances() * clf.num_classes());
  clf.distribution_batch(flat, d, dist);
  std::vector<std::uint64_t> bits;
  for (double p : dist) bits.push_back(std::bit_cast<std::uint64_t>(p));
  return bits;
}

/// Round-trip a trained model and check bit-identical predictions and
/// batch distributions, and that the loaded model saves byte-identically.
void expect_roundtrip(const std::string& scheme, const Dataset& train,
                      const Dataset& check) {
  auto original = make_classifier(scheme);
  original->train(train);

  std::ostringstream out;
  save_model(out, *original);
  std::istringstream in(out.str());
  const auto loaded = load_model(in);

  ASSERT_NE(loaded, nullptr) << scheme;
  EXPECT_EQ(loaded->name(), original->name());
  EXPECT_EQ(loaded->num_classes(), original->num_classes());
  for (std::size_t i = 0; i < check.num_instances(); ++i) {
    EXPECT_EQ(loaded->predict(check.features_of(i)),
              original->predict(check.features_of(i)))
        << scheme << " row " << i;
  }
  EXPECT_EQ(batch_bits(*loaded, check), batch_bits(*original, check))
      << scheme;

  std::ostringstream again;
  save_model(again, *loaded);
  EXPECT_EQ(again.str(), out.str()) << scheme;
}

class RoundTripSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTripSweep, BinaryPredictionsIdentical) {
  const Dataset d = overlapping_binary(250);
  expect_roundtrip(GetParam(), d, d);
}

TEST_P(RoundTripSweep, MulticlassPredictionsIdentical) {
  if (is_one_class_scheme(GetParam()))
    GTEST_SKIP() << "benign-only detectors are binary by construction";
  const Dataset d = three_class(120);
  expect_roundtrip(GetParam(), d, d);
}

// Every scheme the registry can construct must round-trip through the
// model format — registry.hpp is the source of truth for this list.
INSTANTIATE_TEST_SUITE_P(Schemes, RoundTripSweep,
                         ::testing::Values("ZeroR", "OneR", "DecisionStump",
                                           "J48", "JRip", "NaiveBayes",
                                           "MLR", "SVM", "MLP", "IBk",
                                           "AdaBoostM1", "Bagging",
                                           "Mahalanobis", "OneClassSvm",
                                           "KdeAnomaly",
                                           "MahalanobisThreshold"));

// The sweep list above must track the registry exactly — a new scheme that
// is registered but left out of the sweep silently loses round-trip
// coverage. Compare against known_schemes() so that drift fails loudly.
TEST(Serialization, RoundTripSweepCoversEveryRegisteredScheme) {
  const std::vector<std::string> sweep = {
      "ZeroR", "OneR", "DecisionStump", "J48", "JRip", "NaiveBayes",
      "MLR", "SVM", "MLP", "IBk", "AdaBoostM1", "Bagging",
      "Mahalanobis", "OneClassSvm", "KdeAnomaly", "MahalanobisThreshold"};
  EXPECT_EQ(sweep, known_schemes());
}

TEST(Serialization, DistributionsAlsoRoundTrip) {
  const Dataset d = three_class(100);
  auto original = make_classifier("MLP");
  original->train(d);
  std::ostringstream out;
  save_model(out, *original);
  std::istringstream in(out.str());
  const auto loaded = load_model(in);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto a = original->distribution(d.features_of(i));
    const auto b = loaded->distribution(d.features_of(i));
    for (std::size_t c = 0; c < a.size(); ++c)
      EXPECT_DOUBLE_EQ(a[c], b[c]);
  }
}

TEST(Serialization, HeaderContainsSchemeAndVersion) {
  const Dataset d = separable_binary(50);
  auto clf = make_classifier("OneR");
  clf->train(d);
  std::ostringstream out;
  save_model(out, *clf);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("hmd-model v1\n", 0), 0u);
  EXPECT_NE(text.find("scheme OneR"), std::string::npos);
  EXPECT_NE(text.find("\nend\n"), std::string::npos);
}

TEST(Serialization, UntrainedModelThrows) {
  auto clf = make_classifier("J48");
  std::ostringstream out;
  EXPECT_THROW(save_model(out, *clf), PreconditionError);
}

/// A trained classifier the model format knows nothing about.
class Unserializable final : public Classifier {
 public:
  void train(const DatasetView&) override {}
  std::size_t predict(std::span<const double>) const override { return 0; }
  std::string name() const override { return "Unserializable"; }
  std::size_t num_classes() const override { return 2; }
};

TEST(Serialization, UnsupportedSchemeThrows) {
  Unserializable clf;
  std::ostringstream out;
  EXPECT_THROW(save_model(out, clf), PreconditionError);
}

TEST(Serialization, RejectsBadHeader) {
  std::istringstream in("not-a-model v9\n");
  EXPECT_THROW((void)load_model(in), ParseError);
}

TEST(Serialization, RejectsTruncatedInput) {
  const Dataset d = separable_binary(50);
  auto clf = make_classifier("JRip");
  clf->train(d);
  std::ostringstream out;
  save_model(out, *clf);
  const std::string text = out.str();
  std::istringstream in(text.substr(0, text.size() / 2));
  EXPECT_THROW((void)load_model(in), ParseError);
}

TEST(Serialization, RejectsUnknownScheme) {
  std::istringstream in("hmd-model v1\nscheme Quantum\nclasses 2\nend\n");
  EXPECT_THROW((void)load_model(in), ParseError);
}

TEST(Serialization, RejectsCorruptedNumbers) {
  std::istringstream in(
      "hmd-model v1\nscheme DecisionStump\nclasses 2\n"
      "split 0 not-a-number 0 1\nend\n");
  EXPECT_THROW((void)load_model(in), ParseError);
}

TEST(Serialization, LoadedModelSavesIdentically) {
  const Dataset d = overlapping_binary(150);
  auto original = make_classifier("J48");
  original->train(d);
  std::ostringstream first;
  save_model(first, *original);
  std::istringstream in(first.str());
  const auto loaded = load_model(in);
  std::ostringstream second;
  save_model(second, *loaded);
  EXPECT_EQ(first.str(), second.str());
}

/// A model file whose class index field is out of range for its header.
struct BadClassIndex {
  const char* scheme;
  const char* body;   ///< everything between "classes 2" and "end"
  const char* field;  ///< the field the ParseError must name
};

// Names the test case after its field (prefixed with the scheme when the
// field belongs to a committee member) instead of a byte dump.
void PrintTo(const BadClassIndex& bad, std::ostream* os) {
  std::string name = bad.field;
  if (name.rfind(bad.scheme, 0) != 0)
    name = std::string(bad.scheme) + "_" + name;
  std::replace(name.begin(), name.end(), ' ', '_');
  *os << name;
}

class RejectsBadClassIndex : public ::testing::TestWithParam<BadClassIndex> {
};

// A file like this used to load "ok" and then throw from the first batch.
TEST_P(RejectsBadClassIndex, AtLoadNamingTheField) {
  const BadClassIndex& bad = GetParam();
  std::istringstream in(std::string("hmd-model v1\nscheme ") + bad.scheme +
                        "\nclasses 2\n" + bad.body + "end\n");
  const auto loaded = try_load_model(in);
  ASSERT_FALSE(loaded.ok()) << bad.scheme;
  EXPECT_EQ(loaded.error().code(), ErrCode::kParse);
  EXPECT_NE(loaded.error().message().find(bad.field), std::string::npos)
      << loaded.error().to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RejectsBadClassIndex,
    ::testing::Values(
        BadClassIndex{"ZeroR", "majority 2\npriors 0x1p-1 0x1p-1\n",
                      "ZeroR majority"},
        BadClassIndex{"OneR",
                      "feature 0\ntraining_error 0x0p+0\nintervals 2\n"
                      "interval 0x1p+0 0\ninterval inf 5\n",
                      "OneR interval class"},
        BadClassIndex{"DecisionStump", "split 0 0x1p+0 3 1\n",
                      "DecisionStump left class"},
        BadClassIndex{"DecisionStump", "split 0 0x1p+0 0 2\n",
                      "DecisionStump right class"},
        BadClassIndex{"J48", "split 0 0x1p+0 0 10 1\nleaf 0 5 0\nleaf 4 5 1\n",
                      "J48 leaf class"},
        BadClassIndex{"J48", "split 0 0x1p+0 9 10 1\nleaf 0 5 0\nleaf 1 5 1\n",
                      "J48 split class"},
        BadClassIndex{"JRip", "default 0\nrules 1\nrule 7 1\ncond 0 1 0x1p+0\n",
                      "JRip rule class"},
        BadClassIndex{"JRip", "default 2\nrules 0\n", "JRip default class"},
        BadClassIndex{"AdaBoostM1",
                      "members 1\nalphas 0x1p+0\nmember DecisionStump\n"
                      "split 0 0x1p+0 0 -1\n",
                      "DecisionStump right class"}));

}  // namespace
}  // namespace hmd::ml
