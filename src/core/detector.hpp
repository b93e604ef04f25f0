// Detector assemblies:
//
//  * train_and_evaluate — the train/test protocol shared by all studies;
//  * BinaryStudy        — Figs. 13-16: every classifier × feature count,
//                         accuracy plus hardware synthesis;
//  * PcaAssistedOvr     — the thesis's PCA-assisted multiclass detector:
//                         one one-vs-rest classifier per class, each on its
//                         own PCA-custom feature subset (Fig. 19).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/feature_reduction.hpp"
#include "hw/compile.hpp"
#include "ml/classifier.hpp"
#include "ml/evaluation.hpp"
#include "util/thread_pool.hpp"

namespace hmd::core {

/// Train a fresh `scheme` classifier on `train`, evaluate on `test`.
/// The classifier is wrapped in the metrics-instrumented decorator, so
/// every study run feeds the per-scheme train/predict histograms.
struct TrainedModel {
  std::unique_ptr<ml::Classifier> model;
  ml::EvaluationReport evaluation;
};
TrainedModel train_and_evaluate(const std::string& scheme,
                                const ml::Dataset& train,
                                const ml::Dataset& test);

/// One row of the binary study: a classifier at a feature count.
struct BinaryStudyRow {
  std::string scheme;
  std::size_t num_features = 0;
  ml::EvaluationReport report;  ///< full evaluation incl. train/test time
  hw::SynthesisReport synthesis;

  double accuracy() const { return report.accuracy(); }
  double accuracy_per_slice() const {
    const double area = synthesis.area_slices();
    return area > 0.0 ? accuracy() / area : 0.0;
  }
};

/// Runs the Fig. 13-16 study: each scheme trained/evaluated/synthesized on
/// each projected feature set.
class BinaryStudy {
 public:
  BinaryStudy(ml::Dataset train, ml::Dataset test);

  /// Evaluate `schemes` on the given feature subset (empty = all features).
  /// Each scheme trains independently with its own fixed internal seeds, so
  /// fanning the sweep across `pool` (nullptr = serial) returns
  /// bit-identical rows in scheme order.
  std::vector<BinaryStudyRow> run(const std::vector<std::string>& schemes,
                                  const FeatureSet* features = nullptr,
                                  ThreadPool* pool = nullptr) const;

 private:
  ml::Dataset train_;
  ml::Dataset test_;
};

/// The thesis's PCA-assisted multiclass detector: per class, a binary
/// one-vs-rest classifier over that class's custom feature subset; the
/// class whose detector reports the highest positive probability wins.
class PcaAssistedOvr {
 public:
  struct Config {
    std::string scheme = "MLR";
    std::size_t features_per_class = 8;
    double variance_cutoff = 0.95;
    /// When set, every class uses this same subset instead of its own
    /// PCA-custom one (the "non-custom features" baseline of Fig. 19).
    std::optional<FeatureSet> fixed_features;
    /// Cap on negatives per positive when training each one-vs-rest
    /// detector (balanced subsampling; 0 disables). Without it the rare
    /// classes' detectors never produce competitive probabilities.
    double max_negative_ratio = 0.0;
    std::uint64_t subsample_seed = 0xba1a;
  };

  explicit PcaAssistedOvr(Config config) : config_(std::move(config)) {}

  /// `train` must be the 6-class dataset. Feature selection runs on the
  /// training data only (no leakage).
  void train(const ml::Dataset& train);

  std::size_t predict(std::span<const double> features) const;
  ml::EvaluationReport evaluate(const ml::Dataset& test) const;

  /// The per-class feature subsets actually used.
  const std::vector<FeatureSet>& class_features() const { return features_; }

 private:
  Config config_;
  std::vector<std::unique_ptr<ml::Classifier>> detectors_;  ///< per class
  std::vector<FeatureSet> features_;                        ///< per class
  std::vector<std::string> class_names_;
};

}  // namespace hmd::core
