#include "ml/logistic.hpp"

#include <algorithm>

#include "ml/kernels.hpp"

namespace hmd::ml {

void Logistic::train(const DatasetView& data) {
  require_trainable(data);
  // Pre-standardize the training matrix once, into one contiguous block.
  const StandardizedRows rows = fit_standardized(standardizer_, data);
  const std::vector<double>& x = rows.x;
  const std::size_t k = data.num_classes();
  const std::size_t d = data.num_features();
  const std::size_t n = data.num_instances();

  weights_.assign(k, std::vector<double>(d + 1, 0.0));
  std::vector<std::vector<double>> velocity(k,
                                            std::vector<double>(d + 1, 0.0));
  std::vector<std::vector<double>> grad(k, std::vector<double>(d + 1, 0.0));

  std::vector<double> logits(k);
  for (std::size_t iter = 0; iter < params_.iterations; ++iter) {
    for (auto& g : grad) std::fill(g.begin(), g.end(), 0.0);

    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const double> xi{x.data() + i * d, d};
      for (std::size_t c = 0; c < k; ++c) {
        logits[c] = kernels::dot({weights_[c].data(), d}, xi, weights_[c][d]);
      }
      softmax_inplace(logits);
      const std::size_t y = rows.labels[i];
      for (std::size_t c = 0; c < k; ++c) {
        const double err = logits[c] - (c == y ? 1.0 : 0.0);
        kernels::axpy(err, xi, {grad[c].data(), d});
        grad[c][d] += err;
      }
    }

    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t f = 0; f <= d; ++f) {
        double g = grad[c][f] * inv_n;
        if (f < d) g += params_.l2 * weights_[c][f];  // no bias decay
        velocity[c][f] = params_.momentum * velocity[c][f] -
                         params_.learning_rate * g;
        weights_[c][f] += velocity[c][f];
      }
    }
  }
  build_packed();
}

std::size_t Logistic::predict(std::span<const double> features) const {
  const auto dist = distribution(features);
  return static_cast<std::size_t>(
      std::max_element(dist.begin(), dist.end()) - dist.begin());
}

}  // namespace hmd::ml
