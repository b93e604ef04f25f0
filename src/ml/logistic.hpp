// Multinomial logistic regression (softmax regression) — WEKA's Logistic,
// and the thesis's "MLR" multiclass classifier. Two classes degenerate to
// ordinary binary logistic regression.
//
// Training: full-batch gradient descent with momentum on the L2-regularized
// cross-entropy, over internally standardized features. Scoring is the
// shared linear core (linear.hpp) with a softmax link.
#pragma once

#include "ml/linear.hpp"

namespace hmd::ml {

class Logistic final : public LinearModel {
 public:
  struct Params {
    std::size_t iterations = 300;
    double learning_rate = 0.5;
    double momentum = 0.9;
    double l2 = 1e-4;  ///< ridge, as WEKA's -R
  };

  Logistic() : Logistic(Params{}) {}
  explicit Logistic(Params params)
      : LinearModel(LinearLink::kSoftmax), params_(params) {}

  void train(const DatasetView& data) override;
  /// Argmax of the softmax distribution.
  std::size_t predict(std::span<const double> features) const override;
  std::string name() const override { return "MLR"; }

 private:
  Params params_;
};

}  // namespace hmd::ml
