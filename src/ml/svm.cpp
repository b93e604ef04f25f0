#include "ml/svm.hpp"

#include <algorithm>

#include "ml/kernels.hpp"
#include "util/rng.hpp"

namespace hmd::ml {

void LinearSvm::train(const DatasetView& data) {
  require_trainable(data);
  const StandardizedRows rows = fit_standardized(standardizer_, data);
  const std::vector<double>& x = rows.x;
  const std::size_t k = data.num_classes();
  const std::size_t d = data.num_features();
  const std::size_t n = data.num_instances();

  weights_.assign(k, std::vector<double>(d + 1, 0.0));
  Rng rng(params_.seed);

  // One Pegasos run per one-vs-rest problem.
  for (std::size_t cls = 0; cls < k; ++cls) {
    std::vector<double>& w = weights_[cls];
    std::size_t t = 0;
    for (std::size_t epoch = 0; epoch < params_.epochs; ++epoch) {
      for (std::size_t step = 0; step < n; ++step) {
        ++t;
        const std::size_t i = static_cast<std::size_t>(rng.uniform_index(n));
        const std::span<const double> xi{x.data() + i * d, d};
        const double y = rows.labels[i] == cls ? 1.0 : -1.0;
        const double eta = 1.0 / (params_.lambda * static_cast<double>(t));
        const double score = kernels::dot({w.data(), d}, xi, w[d]);
        // Shrink then, on a margin violation, step toward the example.
        const double shrink = 1.0 - eta * params_.lambda;
        for (std::size_t f = 0; f < d; ++f) w[f] *= shrink;
        if (y * score < 1.0) {
          kernels::axpy(eta * y, xi, {w.data(), d});
          w[d] += eta * y;  // unregularized bias
        }
      }
    }
  }
  build_packed();
}

std::size_t LinearSvm::predict(std::span<const double> features) const {
  const std::vector<double> margins = scores(features);
  return static_cast<std::size_t>(
      std::max_element(margins.begin(), margins.end()) - margins.begin());
}

}  // namespace hmd::ml
