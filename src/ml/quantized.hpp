// Quantized inference views over trained classifiers — the serving-side
// low-latency tier.
//
// Two modes:
//  * kQ16Input — inputs pass through the hardware Q16.16 datapath word
//    (util/fixed_point.hpp) before hitting the unmodified float model.
//    This is exactly the quantization hw/evaluate_fixed_point applies, so
//    a Q16-wrapped model is bit-identical to that reference harness when
//    calibrated with the same per-feature magnitudes. Works for every
//    scheme.
//  * kInt8 — weights are folded (standardizer into the first layer, input
//    scales into the rows) and quantized to symmetric per-row int8; inputs
//    quantize to int8 per feature; the matmul runs through the
//    runtime-dispatched kernels::gemm_i8_i32 with exact int32 accumulation
//    and is dequantized per row before the scheme's probability link.
//    Supported for the affine schemes (MLR, SVM, MLP); accuracy is close
//    to but not bit-identical to float — the delta is measured by
//    bench_batch_scoring and must be judged per deployment.
#pragma once

#include <cstdint>
#include <memory>

#include "ml/classifier.hpp"
#include "ml/linear.hpp"

namespace hmd::ml {

class QuantizedModel final : public Classifier {
 public:
  enum class Mode { kQ16Input, kInt8 };

  /// True when `base` (after unwrapping decorators) is an affine scheme
  /// (MLR, SVM, MLP): it has an int8 lowering, and its standardizer lets
  /// kQ16Input derive the per-feature magnitudes without an explicit
  /// calibration. The serving tier gates both quantized modes on this, so
  /// other schemes keep the float path instead of throwing mid-serve.
  static bool int8_supported(const Classifier& base);

  /// Wraps a trained model. `feature_absmax` (one per raw input feature)
  /// calibrates the input grids; when empty it is derived from the base
  /// model's standardizer as |mean| + 6*stddev — a dataset-free bound
  /// covering essentially all of the training distribution's mass (kInt8
  /// and kQ16Input both accept it; kQ16Input on a scheme without a
  /// standardizer requires an explicit calibration).
  QuantizedModel(std::shared_ptr<const Classifier> base, Mode mode,
                 std::vector<double> feature_absmax = {});

  /// Wrapping is post-training only.
  void train(const DatasetView& data) override;
  std::size_t predict(std::span<const double> features) const override;
  std::vector<double> distribution(
      std::span<const double> features) const override;
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override;
  std::string name() const override;
  std::size_t num_classes() const override { return base_->num_classes(); }
  /// Decorator convention: expose the wrapped concrete scheme.
  const Classifier& unwrap() const override { return base_->unwrap(); }

  Mode mode() const { return mode_; }

 private:
  /// One folded affine stage: y_c = row_scale[c] * Σ_f q_in[f]*w[c*in+f]
  /// + bias[c], with the sum in exact int32.
  struct Int8Layer {
    std::vector<std::int8_t> w;     ///< out x in, row-major per output
    std::vector<double> row_scale;  ///< per output
    std::vector<double> bias;       ///< per output, folds absorbed
    std::size_t in = 0;
    std::size_t out = 0;
  };
  void build_q16();
  void build_int8();
  /// Full int8 forward pass for `rows` raw rows into out (rows x classes).
  void int8_batch(const double* flat, std::size_t rows, double* out) const;
  void q16_rows(std::span<const double> flat, std::size_t rows,
                std::vector<double>& buf) const;

  std::shared_ptr<const Classifier> base_;
  Mode mode_;
  std::vector<double> absmax_;     ///< per raw feature, >= 1e-12
  std::vector<double> q16_scale_;  ///< kQ16Input: per-feature pre-scale
  std::vector<double> in_scale_;   ///< kInt8: 127/absmax per raw feature
  LinearLink link_ = LinearLink::kSoftmax;  ///< applied to the last stage
  std::vector<Int8Layer> layers_;  ///< 1 (linear) or 2 (MLP) stages
};

}  // namespace hmd::ml
