// Shared core of the two linear detectors — MLR (logistic.hpp) and the
// linear SVM (svm.hpp). Both score a window as one affine form per class
// over the internally standardized counters; they differ only in how they
// train and in the link that maps the class scores to a distribution.
//
// Every consumer that needs the model's numbers (serialization, the int8
// and q16 tiers, the netlist lowering) reads them through LinearModel, so
// it has one arm for the whole family.
#pragma once

#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/preprocess.hpp"

namespace hmd::ml {

/// How a linear model maps its per-class scores to a distribution.
enum class LinearLink {
  kSoftmax,      ///< MLR: softmax over the class logits
  kSigmoidNorm,  ///< SVM: logistic of each one-vs-rest margin, normalized
};

/// Numerically stable in-place softmax of logits.
void softmax_inplace(std::vector<double>& logits);

/// Applies `link` in place to `rows` consecutive rows of `k` class scores.
/// The link is chosen once for the whole block.
void apply_link(LinearLink link, double* scores, std::size_t rows,
                std::size_t k);

/// Training rows standardized into one contiguous n x d block, with their
/// class labels.
struct StandardizedRows {
  std::vector<double> x;
  std::vector<std::size_t> labels;
};
/// Fits `standardizer` on `data` and returns its rows standardized — the
/// training prologue MLR, SVM and MLP share.
StandardizedRows fit_standardized(Standardizer& standardizer,
                                  const DatasetView& data);

/// Base of MLR and SVM: subclasses set the link, train weights_ and
/// standardizer_, then call build_packed(); scoring lives here.
class LinearModel : public Classifier {
 public:
  std::vector<double> distribution(
      std::span<const double> features) const override;
  /// GEMM batch scoring: rows are standardized into one contiguous chunk,
  /// all class scores come from a single kernels::affine_batch call
  /// (bit-identical to the per-row affine path), and the link is applied
  /// in place in the output slice.
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override;
  std::size_t num_classes() const override { return weights_.size(); }

  /// weights()[c] has num_features entries + bias last (standardized space).
  const std::vector<std::vector<double>>& weights() const { return weights_; }
  const Standardizer& standardizer() const { return standardizer_; }
  LinearLink link() const { return link_; }

 protected:
  explicit LinearModel(LinearLink link) : link_(link) {}

  /// Per-class affine scores of one raw window.
  std::vector<double> scores(std::span<const double> features) const;
  /// Rebuilds packed_ from weights_ (train and model load).
  void build_packed();

  Standardizer standardizer_;
  std::vector<std::vector<double>> weights_;  ///< [class][feature+1]

 private:
  friend struct ModelIo;

  LinearLink link_;
  /// weights_ in the feature-major layout kernels::affine_batch consumes.
  std::vector<double> packed_;
};

}  // namespace hmd::ml
