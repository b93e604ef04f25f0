#include "ml/linear.hpp"

#include <algorithm>

#include "ml/kernels.hpp"
#include "util/error.hpp"

namespace hmd::ml {

void softmax_inplace(std::vector<double>& logits) {
  HMD_REQUIRE(!logits.empty(), "softmax of empty vector");
  apply_link(LinearLink::kSoftmax, logits.data(), 1, logits.size());
}

void apply_link(LinearLink link, double* scores, std::size_t rows,
                std::size_t k) {
  if (link == LinearLink::kSoftmax) {
    for (std::size_t r = 0; r < rows; ++r)
      kernels::softmax_row(scores + r * k, k);
    return;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<double> margins{scores + r * k, k};
    double total = 0.0;
    for (double& v : margins) {
      v = kernels::sigmoid(v);
      total += v;
    }
    if (total > 0.0)
      for (double& v : margins) v /= total;
  }
}

StandardizedRows fit_standardized(Standardizer& standardizer,
                                  const DatasetView& data) {
  standardizer.fit(data);
  const std::size_t d = data.num_features();
  const std::size_t n = data.num_instances();
  StandardizedRows rows{std::vector<double>(n * d),
                        std::vector<std::size_t>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    kernels::standardize_into(data.features_of(i), standardizer.means(),
                              standardizer.stddevs(),
                              {rows.x.data() + i * d, d});
    rows.labels[i] = data.class_of(i);
  }
  return rows;
}

void LinearModel::build_packed() {
  packed_ = kernels::pack_weights_feature_major(weights_);
}

std::vector<double> LinearModel::scores(
    std::span<const double> features) const {
  HMD_REQUIRE(!weights_.empty(), name() + ": predict before train");
  const std::vector<double> x = standardizer_.transform(features);
  std::vector<double> out(weights_.size());
  for (std::size_t c = 0; c < weights_.size(); ++c)
    out[c] = kernels::affine_bias_last(weights_[c], x);
  return out;
}

std::vector<double> LinearModel::distribution(
    std::span<const double> features) const {
  std::vector<double> out = scores(features);
  apply_link(link_, out.data(), 1, out.size());
  return out;
}

void LinearModel::distribution_batch(std::span<const double> flat,
                                     std::size_t window_size,
                                     std::span<double> out) const {
  HMD_REQUIRE(!weights_.empty(), name() + ": predict before train");
  const std::size_t rows = require_batch(flat, window_size, out);
  const std::size_t k = weights_.size();
  const std::vector<double>& mean = standardizer_.means();
  const std::vector<double>& stddev = standardizer_.stddevs();
  HMD_REQUIRE(window_size == mean.size(),
              name() + "::distribution_batch: width mismatch");

  // Chunked GEMM: standardize a block of rows into one contiguous scratch
  // buffer, compute every score of the block in a single affine_batch call
  // (bit-identical to per-row affine_bias_last), then apply the link in
  // the output slice. The chunk bounds scratch memory for huge batches
  // while keeping the kernel's row blocking effective.
  constexpr std::size_t kChunkRows = 128;
  std::vector<double> x(std::min(rows, kChunkRows) * window_size);
  for (std::size_t base = 0; base < rows; base += kChunkRows) {
    const std::size_t lim = std::min(kChunkRows, rows - base);
    kernels::standardize_rows(flat.data() + base * window_size, lim, mean,
                              stddev, x.data());
    kernels::affine_batch(x.data(), lim, window_size, packed_.data(), k,
                          out.data() + base * k);
    apply_link(link_, out.data() + base * k, lim, k);
  }
}

}  // namespace hmd::ml
