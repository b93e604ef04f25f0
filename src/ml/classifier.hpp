// Abstract classifier interface — the equivalent of WEKA's Classifier.
//
// All classifiers consume a Dataset whose last column is the nominal class
// attribute and predict a class index from a feature vector (the row minus
// the class column). Training is batch; prediction is const and
// thread-compatible.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace hmd::ml {

/// Base class for all learners.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Fit the model. Implementations must tolerate repeated calls
  /// (retraining replaces the model). Takes a DatasetView — a Dataset
  /// converts implicitly, and row-subset views (CV folds, bootstrap bags)
  /// train without materializing a copy.
  virtual void train(const DatasetView& data) = 0;

  /// Predicted class index for a feature vector (dataset feature order).
  virtual std::size_t predict(std::span<const double> features) const = 0;

  /// Class probability distribution; default is a one-hot of predict().
  virtual std::vector<double> distribution(
      std::span<const double> features) const;

  /// Batched distributions: `flat` holds consecutive feature rows of
  /// `window_size` values each (row-major); writes row r's distribution to
  /// out[r * num_classes() ... r * num_classes() + num_classes()).
  /// `out.size()` must equal rows x num_classes(). The default loops over
  /// distribution(); schemes override it to reuse buffers across rows
  /// (batch scorers like OnlineDetector::score_windows call this once per
  /// chunk instead of allocating a fresh vector per row).
  virtual void distribution_batch(std::span<const double> flat,
                                  std::size_t window_size,
                                  std::span<double> out) const;

  /// Short WEKA-style scheme name ("J48", "JRip", "OneR", ...).
  virtual std::string name() const = 0;

  /// The underlying scheme object. Identity for concrete schemes;
  /// decorators (InstrumentedClassifier, QuantizedModel) forward to the
  /// wrapped model so scheme-dependent consumers (hardware lowering,
  /// serialization, the quantized tiers) see the concrete scheme.
  virtual const Classifier& unwrap() const { return *this; }

  /// Number of classes the trained model distinguishes (0 before train()).
  virtual std::size_t num_classes() const = 0;

 protected:
  /// Shared precondition check for train().
  static void require_trainable(const DatasetView& data);

  /// Batch helper for predict-only schemes: zeroes `out` and writes a
  /// one-hot of predict() per row — bit-identical to the default
  /// distribution_batch loop without the per-row vector allocation.
  void predict_one_hot_batch(std::span<const double> flat,
                             std::size_t window_size,
                             std::span<double> out) const;

  /// Validates distribution_batch arguments; returns the row count.
  std::size_t require_batch(std::span<const double> flat,
                            std::size_t window_size,
                            std::span<const double> out) const;
};

/// Factory signature used by the experiment harness.
using ClassifierFactory = std::unique_ptr<Classifier> (*)();

}  // namespace hmd::ml
