// Dispatch-parity suite for the runtime-SIMD kernel library: every
// dispatched kernel must produce BIT-IDENTICAL output on every ISA this
// CPU supports (the exactness contract in kernels.hpp), except the
// documented bound_squared_l2 exemption which is checked with tolerance.
#include "ml/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hmd::ml::kernels {
namespace {

/// ISAs this machine can actually run (kScalar is always first).
std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    if (isa_supported(isa)) out.push_back(isa);
  return out;
}

/// Restores the pre-test dispatch choice even if the test throws.
class IsaGuard {
 public:
  IsaGuard() : saved_(active_isa()) {}
  ~IsaGuard() { force_isa(saved_); }

 private:
  Isa saved_;
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a over the bit patterns of `rows`, row by row (so -0.0 != 0.0).
std::uint64_t fnv_rows(std::uint64_t h,
                       const std::vector<std::vector<double>>& rows) {
  for (const auto& row : rows)
    for (const double v : row) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h ^= bits;
      h *= 1099511628211ull;
    }
  return h;
}

TEST(KernelsDispatch, IsaNamesRoundTrip) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    const auto parsed = isa_from_name(to_string(isa));
    ASSERT_TRUE(parsed.has_value()) << to_string(isa);
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(isa_from_name("sse9").has_value());
  EXPECT_FALSE(isa_from_name("").has_value());
  EXPECT_FALSE(isa_from_name("AVX2 ").has_value());
}

TEST(KernelsDispatch, ScalarAlwaysSupportedAndForcible) {
  EXPECT_TRUE(isa_supported(Isa::kScalar));
  IsaGuard guard;
  force_isa(Isa::kScalar);
  EXPECT_EQ(active_isa(), Isa::kScalar);
}

TEST(KernelsDispatch, ForceIsaByNameRejectsUnknownName) {
  EXPECT_THROW(force_isa_by_name("mmx"), Error);
  EXPECT_THROW(force_isa_by_name(""), Error);
}

TEST(KernelsDispatch, ResolveIsaRequestClampsToSupportedTier) {
  // The HMD_KERNEL_ISA resolver: names parse to their tier, but a request
  // above what this CPU supports clamps to the best supported tier
  // (fleet-wide env settings must not abort weaker runners). Unknown
  // names still fail fast.
  const Isa best = supported_isas().back();
  EXPECT_EQ(resolve_isa_request("scalar"), Isa::kScalar);
  for (const char* name : {"avx2", "avx512"}) {
    const Isa requested = *isa_from_name(name);
    const Isa resolved = resolve_isa_request(name);
    EXPECT_EQ(resolved, std::min(requested, best)) << name;
    EXPECT_TRUE(isa_supported(resolved)) << name;
  }
  EXPECT_THROW(resolve_isa_request("sse9"), Error);
  EXPECT_THROW(resolve_isa_request(""), Error);
}

TEST(KernelsDispatch, AffineBatchBitIdenticalAcrossIsasAndToPerRowForm) {
  Rng rng(41);
  // Odd d and k exercise vector tails; rows has no alignment contract.
  for (const auto [rows, d, k] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{17, 13, 7},
        {64, 16, 6},
        {3, 1, 1},
        {33, 24, 9}}) {
    std::vector<std::vector<double>> w(k, std::vector<double>(d + 1));
    for (auto& row : w)
      for (double& v : row) v = rng.normal(0.0, 1.0);
    std::vector<double> a(rows * d);
    for (double& v : a) v = rng.normal(0.0, 2.0);
    const std::vector<double> packed = pack_weights_feature_major(w);

    std::vector<double> ref(rows * k);
    affine_batch_as(Isa::kScalar, a.data(), rows, d, packed.data(), k,
                    ref.data());
    // The scalar batch form must match the per-row accumulation exactly.
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < k; ++c) {
        const double per_row = affine_bias_last(
            w[c], std::span<const double>(a.data() + r * d, d));
        ASSERT_EQ(ref[r * k + c], per_row) << "r=" << r << " c=" << c;
      }
    for (Isa isa : supported_isas()) {
      std::vector<double> out(rows * k, std::numeric_limits<double>::quiet_NaN());
      affine_batch_as(isa, a.data(), rows, d, packed.data(), k, out.data());
      for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(ref[i], out[i]) << to_string(isa) << " i=" << i;
    }
  }
}

TEST(KernelsDispatch, ScreenBitIdenticalAcrossIsasAndToDirectSum) {
  Rng rng(42);
  for (const std::size_t dims : {std::size_t{5}, std::size_t{16}}) {
    const std::size_t rows = 48;  // multiple-of-16 contract
    std::vector<std::int16_t> block(screen_block_entries(rows, dims), 0);
    std::vector<std::vector<std::int16_t>> pts(rows,
                                               std::vector<std::int16_t>(dims));
    for (std::size_t b = 0; b < rows; ++b)
      for (std::size_t j = 0; j < dims; ++j) {
        pts[b][j] = static_cast<std::int16_t>(rng.uniform_int(-2047, 2047));
        block[screen_block_index(rows, b, j)] = pts[b][j];
      }
    // Odd dims: the padded dimension stays 0 in both block and query.
    std::vector<std::int16_t> qx(dims + (dims % 2), 0);
    for (std::size_t j = 0; j < dims; ++j)
      qx[j] = static_cast<std::int16_t>(rng.uniform_int(-2047, 2047));

    std::vector<std::int32_t> ref(rows);
    screen_squared_l2_i16_as(Isa::kScalar, block.data(), qx.data(), dims, rows,
                             ref.data());
    for (std::size_t b = 0; b < rows; ++b) {
      std::int64_t want = 0;
      for (std::size_t j = 0; j < dims; ++j) {
        const std::int64_t t = std::int64_t{qx[j]} - pts[b][j];
        want += t * t;
      }
      ASSERT_EQ(ref[b], want) << "b=" << b;
    }
    for (Isa isa : supported_isas()) {
      std::vector<std::int32_t> acc(rows, -1);
      screen_squared_l2_i16_as(isa, block.data(), qx.data(), dims, rows,
                               acc.data());
      ASSERT_EQ(acc, ref) << to_string(isa);
    }
  }
}

TEST(KernelsDispatch, MaskBitIdenticalAcrossIsas) {
  Rng rng(43);
  const std::size_t n = 192;
  std::vector<std::int32_t> acc(n);
  const std::int32_t thr = 1000;
  for (auto& v : acc)  // cluster around thr so both mask outcomes occur
    v = thr + static_cast<std::int32_t>(rng.uniform_int(-20, 20));
  acc[0] = thr;  // boundary: <= keeps the exact threshold
  std::vector<std::uint64_t> ref((n + 63) / 64, 0);
  mask_le_i32_as(Isa::kScalar, acc.data(), n, thr, ref.data());
  for (std::size_t b = 0; b < n; ++b) {
    const bool bit = (ref[b / 64] >> (b % 64)) & 1u;
    ASSERT_EQ(bit, acc[b] <= thr) << "b=" << b;
  }
  for (Isa isa : supported_isas()) {
    std::vector<std::uint64_t> mask((n + 63) / 64, ~std::uint64_t{0});
    mask_le_i32_as(isa, acc.data(), n, thr, mask.data());
    ASSERT_EQ(mask, ref) << to_string(isa);
  }
}

TEST(KernelsDispatch, GemmInt8BitIdenticalAcrossIsasAndToInt64Sum) {
  Rng rng(44);
  for (const auto [rows, d, k] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{9, 15, 5},
        {32, 16, 6},
        {1, 1, 1}}) {
    std::vector<std::int8_t> a(rows * d), w(k * d);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    std::vector<std::int32_t> ref(rows * k);
    gemm_i8_i32_as(Isa::kScalar, a.data(), rows, d, w.data(), k, ref.data());
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < k; ++c) {
        std::int64_t want = 0;
        for (std::size_t f = 0; f < d; ++f)
          want += std::int64_t{a[r * d + f]} * w[c * d + f];
        ASSERT_EQ(ref[r * k + c], want);
      }
    for (Isa isa : supported_isas()) {
      std::vector<std::int32_t> out(rows * k, -1);
      gemm_i8_i32_as(isa, a.data(), rows, d, w.data(), k, out.data());
      ASSERT_EQ(out, ref) << to_string(isa);
    }
  }
}

/// The per-weight scalar SGD loop the MLP kernel replaced, on bias-last
/// rows (w1[j] = d weights + bias, w2[c] = h weights + bias): the
/// reference the kernel must reproduce bit for bit.
void reference_mlp_steps(std::vector<std::vector<double>>& w1,
                         std::vector<std::vector<double>>& w2,
                         std::vector<std::vector<double>>& v1,
                         std::vector<std::vector<double>>& v2,
                         const std::vector<double>& x,
                         const std::vector<std::size_t>& labels,
                         const std::vector<std::size_t>& order, double lr,
                         double m) {
  const std::size_t h = w1.size(), k = w2.size(), d = w1[0].size() - 1;
  std::vector<double> hidden(h), out(k), delta(h);
  for (const std::size_t idx : order) {
    const std::span<const double> xi{x.data() + idx * d, d};
    for (std::size_t j = 0; j < h; ++j)
      hidden[j] = sigmoid(dot({w1[j].data(), d}, xi, w1[j][d]));
    for (std::size_t c = 0; c < k; ++c)
      out[c] = dot({w2[c].data(), h}, hidden, w2[c][h]);
    softmax_row(out.data(), k);
    std::fill(delta.begin(), delta.end(), 0.0);
    for (std::size_t c = 0; c < k; ++c) {
      const double err = out[c] - (c == labels[idx] ? 1.0 : 0.0);
      axpy(err, {w2[c].data(), h}, delta);
      for (std::size_t j = 0; j < h; ++j) {
        v2[c][j] = m * v2[c][j] - (lr * err) * hidden[j];
        w2[c][j] += v2[c][j];
      }
      v2[c][h] = m * v2[c][h] - lr * err;
      w2[c][h] += v2[c][h];
    }
    for (std::size_t j = 0; j < h; ++j) {
      const double step = lr * (delta[j] * hidden[j] * (1.0 - hidden[j]));
      for (std::size_t f = 0; f < d; ++f) {
        v1[j][f] = m * v1[j][f] - step * xi[f];
        w1[j][f] += v1[j][f];
      }
      v1[j][d] = m * v1[j][d] - step;
      w1[j][d] += v1[j][d];
    }
  }
}

TEST(KernelsDispatch, MlpSgdStepsBitIdenticalAcrossIsasAndToScalarLoop) {
  Rng rng(47);
  // Hidden counts below, at and past each clone's vector width; d = 1 is
  // the narrowest input; repeated rows in `order` revisit momentum.
  for (const auto [h, d, k] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 2},
        {3, 16, 6},
        {8, 5, 2},
        {9, 16, 2},
        {17, 3, 3}}) {
    SCOPED_TRACE(testing::Message() << "h=" << h << " d=" << d << " k=" << k);
    std::vector<std::vector<double>> w1(h, std::vector<double>(d + 1));
    std::vector<std::vector<double>> w2(k, std::vector<double>(h + 1));
    for (auto& row : w1)
      for (double& v : row) v = rng.normal(0.0, 0.5);
    for (auto& row : w2)
      for (double& v : row) v = rng.normal(0.0, 0.5);
    const std::size_t n = 23;
    std::vector<double> x(n * d);
    for (double& v : x) v = rng.normal(0.0, 1.5);
    std::vector<std::size_t> labels(n), order(3 * n);
    for (auto& y : labels) y = rng.uniform_index(k);
    for (auto& i : order) i = rng.uniform_index(n);

    // The pack/unpack round trip is exact.
    std::vector<std::vector<double>> back1 = w1, back2 = w2;
    for (auto& row : back1) std::fill(row.begin(), row.end(), 0.0);
    for (auto& row : back2) std::fill(row.begin(), row.end(), 0.0);
    MlpNet(w1, w2).unpack(back1, back2);
    ASSERT_EQ(back1, w1);
    ASSERT_EQ(back2, w2);

    // Two calls (lr changes between epochs) carry the momentum over.
    auto ref1 = w1, ref2 = w2;
    std::vector<std::vector<double>> rv1(h, std::vector<double>(d + 1, 0.0));
    std::vector<std::vector<double>> rv2(k, std::vector<double>(h + 1, 0.0));
    reference_mlp_steps(ref1, ref2, rv1, rv2, x, labels, order, 0.05, 0.9);
    reference_mlp_steps(ref1, ref2, rv1, rv2, x, labels, order, 0.03, 0.9);
    const std::uint64_t want =
        fnv_rows(fnv_rows(kFnvOffset, ref1), ref2);
    for (Isa isa : supported_isas()) {
      MlpNet net(w1, w2);
      mlp_sgd_steps_as(isa, net, x.data(), labels.data(), order, 0.05, 0.9);
      mlp_sgd_steps_as(isa, net, x.data(), labels.data(), order, 0.03, 0.9);
      std::vector<std::vector<double>> got1 = w1, got2 = w2;
      net.unpack(got1, got2);
      EXPECT_EQ(fnv_rows(fnv_rows(kFnvOffset, got1), got2), want)
          << to_string(isa);
    }
  }
}

TEST(KernelsDispatch, BoundIsValidLowerBoundWithinDocumentedSlack) {
  // bound_squared_l2 is EXEMPT from bit-parity (reassociated reduction);
  // the contract is: every ISA's value is within a tiny relative rounding
  // of the exact sum, and after the caller-side 1e-12 shrink it never
  // exceeds the true squared distance to any point of the box.
  Rng rng(45);
  for (const std::size_t d : {std::size_t{3}, std::size_t{16}, std::size_t{33}}) {
    std::vector<double> lo(d), hi(d), x(d), clamped(d);
    for (std::size_t j = 0; j < d; ++j) {
      const double a = rng.normal(0.0, 1.0);
      const double b = a + std::abs(rng.normal(0.0, 1.0));
      lo[j] = a;
      hi[j] = b;
      x[j] = rng.normal(0.0, 3.0);
      clamped[j] = std::min(std::max(x[j], lo[j]), hi[j]);
    }
    const double exact = squared_l2(x, clamped);
    for (Isa isa : supported_isas()) {
      const double bound = bound_squared_l2_as(isa, lo.data(), hi.data(),
                                               x.data(), d);
      EXPECT_NEAR(bound, exact, 1e-9 * std::max(1.0, exact))
          << to_string(isa) << " d=" << d;
      EXPECT_LE(bound * (1.0 - 1e-12), exact) << to_string(isa);
    }
    // A point inside the box has bound exactly 0 on every ISA.
    for (Isa isa : supported_isas())
      EXPECT_EQ(bound_squared_l2_as(isa, lo.data(), hi.data(), clamped.data(),
                                    d),
                0.0)
          << to_string(isa);
  }
}

// -- Golden fingerprints: FNV-1a over the output bit patterns of each
//    bit-exact kernel on fixed seeded inputs. Unlike the pairwise parity
//    tests above, these pin the results ACROSS BUILDS: an accidental
//    accumulation-order change (or a -ffast-math / -ffp-contract leak
//    into kernels.cpp) changes the constant even if every ISA clone
//    changes in lockstep.

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

std::uint64_t fnv_doubles(std::uint64_t h, const std::vector<double>& vs) {
  for (const double d : vs) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(double));
    __builtin_memcpy(&bits, &d, sizeof bits);
    h = fnv_mix(h, bits);
  }
  return h;
}

TEST(KernelsDispatch, GoldenFingerprintAffineBatch) {
  Rng rng(4242);
  const std::size_t rows = 37, d = 19, k = 5;
  std::vector<std::vector<double>> w(k, std::vector<double>(d + 1));
  for (auto& row : w)
    for (double& v : row) v = rng.normal(0.0, 1.0);
  const std::vector<double> packed = pack_weights_feature_major(w);
  std::vector<double> a(rows * d);
  for (double& v : a) v = rng.normal(0.0, 2.0);
  for (Isa isa : supported_isas()) {
    std::vector<double> out(rows * k);
    affine_batch_as(isa, a.data(), rows, d, packed.data(), k, out.data());
    EXPECT_EQ(fnv_doubles(kFnvOffset, out), 0x0c193662d62e30cdull)
        << to_string(isa);
  }
}

TEST(KernelsDispatch, GoldenFingerprintIntegerKernels) {
  Rng rng(4243);
  // screen: one 48-row block of 9 dims (odd width exercises the pad).
  const std::size_t rows = 48, dims = 9;
  std::vector<std::int16_t> block(screen_block_entries(rows, dims), 0);
  for (std::size_t b = 0; b < rows; ++b)
    for (std::size_t j = 0; j < dims; ++j)
      block[screen_block_index(rows, b, j)] =
          static_cast<std::int16_t>(rng.uniform_int(-2047, 2047));
  std::vector<std::int16_t> qx(dims + 1, 0);
  for (std::size_t j = 0; j < dims; ++j)
    qx[j] = static_cast<std::int16_t>(rng.uniform_int(-2047, 2047));
  // gemm: 11x13 inputs against 6 outputs.
  const std::size_t gr = 11, gd = 13, gk = 6;
  std::vector<std::int8_t> ga(gr * gd), gw(gk * gd);
  for (auto& v : ga) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : gw) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (Isa isa : supported_isas()) {
    std::vector<std::int32_t> acc(rows);
    screen_squared_l2_i16_as(isa, block.data(), qx.data(), dims, rows,
                             acc.data());
    std::vector<std::int32_t> gout(gr * gk);
    gemm_i8_i32_as(isa, ga.data(), gr, gd, gw.data(), gk, gout.data());
    std::uint64_t h = kFnvOffset;
    for (const std::int32_t v : acc)
      h = fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
    for (const std::int32_t v : gout)
      h = fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
    EXPECT_EQ(h, 0x74100ffa15b3f7f8ull) << to_string(isa);
  }
}

TEST(KernelsDispatch, DispatchedEntryPointsFollowForcedIsa) {
  // The un-suffixed entry points must route through active_isa(): forcing
  // scalar and forcing the best ISA must agree bit-for-bit (affine) and
  // exactly (gemm) on the same inputs.
  IsaGuard guard;
  Rng rng(46);
  const std::size_t rows = 19, d = 11, k = 4;
  std::vector<std::vector<double>> w(k, std::vector<double>(d + 1));
  for (auto& row : w)
    for (double& v : row) v = rng.normal(0.0, 1.0);
  const std::vector<double> packed = pack_weights_feature_major(w);
  std::vector<double> a(rows * d);
  for (double& v : a) v = rng.normal(0.0, 1.0);

  std::vector<double> out_scalar(rows * k), out_best(rows * k);
  force_isa(Isa::kScalar);
  affine_batch(a.data(), rows, d, packed.data(), k, out_scalar.data());
  const auto isas = supported_isas();
  force_isa(isas.back());
  affine_batch(a.data(), rows, d, packed.data(), k, out_best.data());
  for (std::size_t i = 0; i < out_scalar.size(); ++i)
    ASSERT_EQ(out_scalar[i], out_best[i]) << "i=" << i;
}

}  // namespace
}  // namespace hmd::ml::kernels
