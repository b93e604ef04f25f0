#include "ml/quantized.hpp"

#include <algorithm>
#include <cmath>

#include "ml/kernels.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "util/error.hpp"
#include "util/fixed_point.hpp"

namespace hmd::ml {

namespace {

/// Symmetric int8 quantizer with saturation; non-finite inputs clamp by
/// sign (NaN maps to 0) so degenerate rows cannot poison the matmul.
std::int8_t quantize_i8(double v) {
  if (!std::isfinite(v)) {
    if (std::isnan(v)) return 0;
    return v > 0.0 ? std::int8_t{127} : std::int8_t{-127};
  }
  const long long q = std::llround(v);
  return static_cast<std::int8_t>(std::clamp(q, -127LL, 127LL));
}

const Standardizer* find_standardizer(const Classifier& c) {
  const Classifier& u = c.unwrap();
  if (const auto* p = dynamic_cast<const LinearModel*>(&u))
    return &p->standardizer();
  if (const auto* p = dynamic_cast<const Mlp*>(&u)) return &p->standardizer();
  return nullptr;
}

}  // namespace

bool QuantizedModel::int8_supported(const Classifier& base) {
  return find_standardizer(base) != nullptr;
}

QuantizedModel::QuantizedModel(std::shared_ptr<const Classifier> base,
                               Mode mode, std::vector<double> feature_absmax)
    : base_(std::move(base)), mode_(mode), absmax_(std::move(feature_absmax)) {
  HMD_REQUIRE(base_ != nullptr, "QuantizedModel: null base model");
  HMD_REQUIRE(base_->num_classes() >= 2,
              "QuantizedModel: base model is not trained");
  if (mode_ == Mode::kQ16Input)
    build_q16();
  else
    build_int8();
}

void QuantizedModel::train(const DatasetView&) {
  HMD_REQUIRE(false, "QuantizedModel: train the base model, then wrap it");
}

std::string QuantizedModel::name() const {
  return (mode_ == Mode::kInt8 ? "int8/" : "q16/") + base_->name();
}

void QuantizedModel::build_q16() {
  if (absmax_.empty()) {
    const Standardizer* std_ = find_standardizer(*base_);
    HMD_REQUIRE(std_ != nullptr,
                "QuantizedModel: q16 mode needs feature_absmax calibration "
                "for schemes without a standardizer");
    const auto& mean = std_->means();
    const auto& sd = std_->stddevs();
    absmax_.resize(mean.size());
    for (std::size_t f = 0; f < mean.size(); ++f)
      absmax_[f] = std::abs(mean[f]) + 6.0 * sd[f];
  }
  q16_scale_.resize(absmax_.size());
  for (std::size_t f = 0; f < absmax_.size(); ++f) {
    absmax_[f] = std::max(absmax_[f], 1e-12);
    // Keep values within +-2^14 so Q16.16 products stay representable —
    // the identical rule hw/evaluate_fixed_point applies.
    q16_scale_[f] = absmax_[f] > 16000.0 ? 16000.0 / absmax_[f] : 1.0;
  }
}

void QuantizedModel::build_int8() {
  const Classifier& u = base_->unwrap();
  HMD_REQUIRE(int8_supported(u),
              "QuantizedModel: int8 mode supports MLR, SVM and MLP only");
  const Standardizer& std_ = *find_standardizer(u);
  const auto& mean = std_.means();
  const auto& sd = std_.stddevs();
  const std::size_t d = mean.size();

  if (absmax_.empty()) {
    absmax_.resize(d);
    for (std::size_t f = 0; f < d; ++f)
      absmax_[f] = std::abs(mean[f]) + 6.0 * sd[f];
  }
  HMD_REQUIRE(absmax_.size() == d,
              "QuantizedModel: feature_absmax width mismatch");
  in_scale_.resize(d);
  for (std::size_t f = 0; f < d; ++f)
    in_scale_[f] = 127.0 / std::max(absmax_[f], 1e-12);

  // Folds standardization (optional) and input scales into the rows, then
  // quantizes each row to symmetric int8 with its own scale.
  const auto fold = [](const std::vector<std::vector<double>>& w,
                       const std::vector<double>& fold_mean,
                       const std::vector<double>& fold_sd,
                       const std::vector<double>& in_scale) {
    const std::size_t out = w.size();
    const std::size_t in = in_scale.size();
    Int8Layer layer;
    layer.in = in;
    layer.out = out;
    layer.w.assign(out * in, 0);
    layer.row_scale.assign(out, 1.0);
    layer.bias.assign(out, 0.0);
    std::vector<double> v(in);
    for (std::size_t c = 0; c < out; ++c) {
      HMD_REQUIRE(w[c].size() == in + 1,
                  "QuantizedModel: weight row width mismatch");
      double b = w[c][in];
      double mx = 0.0;
      for (std::size_t f = 0; f < in; ++f) {
        double wf = w[c][f];
        if (!fold_sd.empty()) {
          if (fold_sd[f] > 0.0) {
            wf = w[c][f] / fold_sd[f];
            b -= w[c][f] * fold_mean[f] / fold_sd[f];
          } else {
            wf = 0.0;  // constant column standardizes to 0
          }
        }
        v[f] = wf / in_scale[f];
        mx = std::max(mx, std::abs(v[f]));
      }
      layer.row_scale[c] = mx > 0.0 ? mx / 127.0 : 1.0;
      for (std::size_t f = 0; f < in; ++f)
        layer.w[c * in + f] = quantize_i8(v[f] / layer.row_scale[c]);
      layer.bias[c] = b;
    }
    return layer;
  };

  layers_.clear();
  if (const auto* linear = dynamic_cast<const LinearModel*>(&u)) {
    link_ = linear->link();
    layers_.push_back(fold(linear->weights(), mean, sd, in_scale_));
  } else {
    const auto* m = dynamic_cast<const Mlp*>(&u);
    link_ = LinearLink::kSoftmax;
    layers_.push_back(fold(m->w1(), mean, sd, in_scale_));
    // Hidden activations are sigmoids in (0, 1); they requantize with the
    // fixed scale 127, folded into the second layer here.
    const std::vector<double> hidden_scale(m->hidden_units(), 127.0);
    layers_.push_back(fold(m->w2(), {}, {}, hidden_scale));
  }
}

void QuantizedModel::q16_rows(std::span<const double> flat, std::size_t rows,
                              std::vector<double>& buf) const {
  const std::size_t d = q16_scale_.size();
  buf.resize(rows * d);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t f = 0; f < d; ++f) {
      const double x = flat[r * d + f];
      buf[r * d + f] = quantize_q16(x * q16_scale_[f]) / q16_scale_[f];
    }
}

void QuantizedModel::int8_batch(const double* flat, std::size_t rows,
                                double* out) const {
  const std::size_t d = in_scale_.size();
  const Int8Layer& l1 = layers_.front();

  std::vector<std::int8_t> q(rows * d);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t f = 0; f < d; ++f)
      q[r * d + f] = quantize_i8(flat[r * d + f] * in_scale_[f]);

  std::vector<std::int32_t> acc(rows * l1.out);
  kernels::gemm_i8_i32(q.data(), rows, d, l1.w.data(), l1.out, acc.data());

  if (layers_.size() == 1) {
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < l1.out; ++c)
        out[r * l1.out + c] =
            l1.row_scale[c] * static_cast<double>(acc[r * l1.out + c]) +
            l1.bias[c];
    apply_link(link_, out, rows, l1.out);
    return;
  }

  const Int8Layer& l2 = layers_[1];
  std::vector<std::int8_t> qh(rows * l1.out);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t h = 0; h < l1.out; ++h) {
      const double z =
          l1.row_scale[h] * static_cast<double>(acc[r * l1.out + h]) +
          l1.bias[h];
      const double a = kernels::sigmoid(z);
      qh[r * l1.out + h] = quantize_i8(a * 127.0);
    }
  std::vector<std::int32_t> acc2(rows * l2.out);
  kernels::gemm_i8_i32(qh.data(), rows, l1.out, l2.w.data(), l2.out,
                       acc2.data());
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < l2.out; ++c)
      out[r * l2.out + c] =
          l2.row_scale[c] * static_cast<double>(acc2[r * l2.out + c]) +
          l2.bias[c];
  apply_link(link_, out, rows, l2.out);
}

std::size_t QuantizedModel::predict(std::span<const double> features) const {
  if (mode_ == Mode::kQ16Input) {
    HMD_REQUIRE(features.size() == q16_scale_.size(),
                "QuantizedModel: feature width mismatch");
    std::vector<double> buf;
    q16_rows(features, 1, buf);
    return base_->predict(buf);
  }
  const auto dist = distribution(features);
  return static_cast<std::size_t>(
      std::max_element(dist.begin(), dist.end()) - dist.begin());
}

std::vector<double> QuantizedModel::distribution(
    std::span<const double> features) const {
  if (mode_ == Mode::kQ16Input) {
    HMD_REQUIRE(features.size() == q16_scale_.size(),
                "QuantizedModel: feature width mismatch");
    std::vector<double> buf;
    q16_rows(features, 1, buf);
    return base_->distribution(buf);
  }
  HMD_REQUIRE(features.size() == in_scale_.size(),
              "QuantizedModel: feature width mismatch");
  std::vector<double> out(num_classes());
  int8_batch(features.data(), 1, out.data());
  return out;
}

void QuantizedModel::distribution_batch(std::span<const double> flat,
                                        std::size_t window_size,
                                        std::span<double> out) const {
  const std::size_t rows = require_batch(flat, window_size, out);
  const std::size_t k = num_classes();
  constexpr std::size_t kChunkRows = 1024;
  if (mode_ == Mode::kQ16Input) {
    HMD_REQUIRE(window_size == q16_scale_.size(),
                "QuantizedModel: feature width mismatch");
    std::vector<double> buf;
    for (std::size_t base = 0; base < rows; base += kChunkRows) {
      const std::size_t lim = std::min(kChunkRows, rows - base);
      q16_rows(flat.subspan(base * window_size, lim * window_size), lim, buf);
      base_->distribution_batch(buf, window_size,
                                out.subspan(base * k, lim * k));
    }
    return;
  }
  HMD_REQUIRE(window_size == in_scale_.size(),
              "QuantizedModel: feature width mismatch");
  for (std::size_t base = 0; base < rows; base += kChunkRows) {
    const std::size_t lim = std::min(kChunkRows, rows - base);
    int8_batch(flat.data() + base * window_size, lim,
               out.data() + base * k);
  }
}

}  // namespace hmd::ml
