// Linear support vector machine trained in the primal with Pegasos
// (Shalev-Shwartz et al., 2007); multiclass via one-vs-rest, matching how
// WEKA's SMO handles multiclass with a linear kernel. Scoring is the shared
// linear core (linear.hpp): weights()[c] is class c's one-vs-rest
// hyperplane, and distribution() maps the margins through a logistic link
// (not calibrated probabilities).
#pragma once

#include <cstdint>

#include "ml/linear.hpp"

namespace hmd::ml {

class LinearSvm final : public LinearModel {
 public:
  struct Params {
    double lambda = 1e-4;      ///< regularization (≈ 1/C·n)
    std::size_t epochs = 30;   ///< passes over the data
    std::uint64_t seed = 7;    ///< SGD sampling order
  };

  LinearSvm() : LinearSvm(Params{}) {}
  explicit LinearSvm(Params params)
      : LinearModel(LinearLink::kSigmoidNorm), params_(params) {}

  void train(const DatasetView& data) override;
  /// Argmax of the raw margins.
  std::size_t predict(std::span<const double> features) const override;
  std::string name() const override { return "SVM"; }

 private:
  Params params_;
};

}  // namespace hmd::ml
