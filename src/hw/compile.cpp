#include "hw/compile.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "hw/backend.hpp"
#include "ml/decision_stump.hpp"
#include "ml/j48.hpp"
#include "ml/jrip.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/one_r.hpp"
#include "ml/registry.hpp"
#include "util/error.hpp"

namespace hmd::hw {

namespace {

/// Shared lowering state: the netlist under construction plus the input
/// grid (per-feature scales) every threshold/weight folds against.
struct LowerCtx {
  Netlist nl;
  const std::vector<double>& scales;

  NetId in(std::size_t f) { return nl.input(static_cast<std::uint32_t>(f)); }
  /// Threshold literal on feature f's grid (floor semantics — see
  /// netlist.hpp for why this makes integer compares exact).
  NetId th(std::size_t f, double t) {
    HMD_REQUIRE(f < scales.size(),
                "compile: model references feature beyond the port list");
    return nl.constant(NetType::kQ16, threshold_raw(t, scales[f]));
  }
  NetId cls(std::size_t c) { return nl.class_constant(c); }
};

/// Balanced adder tree over `terms` — exact regardless of shape (integer
/// addition is associative), minimal critical path.
NetId sum_tree(Netlist& nl, std::vector<NetId> terms) {
  HMD_REQUIRE(!terms.empty(), "sum_tree: no terms");
  while (terms.size() > 1) {
    std::vector<NetId> next;
    next.reserve(terms.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2)
      next.push_back(nl.add(terms[i], terms[i + 1]));
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms.front();
}

/// Extended-precision weight shift: the largest e (capped at 46) keeping
/// round(maxw * 2^e) within 2^30, so a product against a <= 2^30 input raw
/// stays under 2^61 — representable in the 64-bit RTL datapath.
std::uint32_t weight_shift(double max_abs_weight) {
  if (max_abs_weight <= 0.0) return 30;
  const double e = std::floor(30.0 - std::log2(max_abs_weight));
  HMD_REQUIRE(e >= 0.0, "weight magnitude overflows the Q16.16 datapath");
  return static_cast<std::uint32_t>(std::min(e, 46.0));
}

std::int64_t weight_raw(double w, std::uint32_t shift) {
  const double scaled = std::ldexp(w, static_cast<int>(shift));
  HMD_REQUIRE(std::isfinite(scaled) && std::abs(scaled) < 9.2e18,
              "weight overflows the fixed-point datapath");
  return static_cast<std::int64_t>(std::llround(scaled));
}

// -- scheme lowerings -------------------------------------------------------

void lower_net_one_r(LowerCtx& ctx, const ml::OneR& model) {
  const auto& intervals = model.intervals();
  HMD_REQUIRE(!intervals.empty(), "compile: OneR model is not trained");
  const std::size_t f = model.chosen_feature();
  const NetId x = ctx.in(f);
  // Priority chain, first matching interval wins; the last interval is the
  // default arm (its bound is +inf and never compared).
  NetId decision = ctx.cls(intervals.back().cls);
  for (std::size_t i = intervals.size() - 1; i-- > 0;) {
    const NetId hit = ctx.nl.cmp_le(x, ctx.th(f, intervals[i].upper_bound));
    decision = ctx.nl.mux(hit, ctx.cls(intervals[i].cls), decision);
  }
  ctx.nl.set_output(decision);
}

void lower_net_stump(LowerCtx& ctx, const ml::DecisionStump& model) {
  const std::size_t f = model.split_feature();
  const NetId hit = ctx.nl.cmp_le(ctx.in(f), ctx.th(f, model.split_threshold()));
  ctx.nl.set_output(ctx.nl.mux(hit, ctx.cls(model.left_class()),
                               ctx.cls(model.right_class())));
}

NetId lower_j48_node(LowerCtx& ctx, const ml::J48::Node& node) {
  if (node.is_leaf()) return ctx.cls(node.cls);
  const NetId hit =
      ctx.nl.cmp_le(ctx.in(node.feature), ctx.th(node.feature, node.threshold));
  return ctx.nl.mux(hit, lower_j48_node(ctx, *node.left),
                    lower_j48_node(ctx, *node.right));
}

void lower_net_j48(LowerCtx& ctx, const ml::J48& model) {
  ctx.nl.set_output(lower_j48_node(ctx, model.root()));
}

void lower_net_jrip(LowerCtx& ctx, const ml::JRip& model) {
  const auto& rules = model.rules();
  std::vector<NetId> fires;
  fires.reserve(rules.size());
  for (const auto& rule : rules) {
    std::vector<NetId> conds;
    conds.reserve(rule.conditions.size());
    for (const auto& c : rule.conditions) {
      const NetId x = ctx.in(c.feature);
      const NetId t = ctx.th(c.feature, c.threshold);
      conds.push_back(c.greater ? ctx.nl.cmp_gt(x, t) : ctx.nl.cmp_le(x, t));
    }
    if (conds.empty())
      conds.push_back(ctx.nl.constant(NetType::kBit, 1));
    fires.push_back(ctx.nl.and_reduce(std::move(conds)));
  }
  // Ordered list: first firing rule wins, else the default class.
  NetId decision = ctx.cls(model.default_class());
  for (std::size_t r = rules.size(); r-- > 0;)
    decision = ctx.nl.mux(fires[r], ctx.cls(rules[r].cls), decision);
  ctx.nl.set_output(decision);
}

/// The linear family (MLR, SVM): per class a folded affine score over the
/// raw input grid, then an argmax (softmax/sigmoid links are monotone, so
/// the class decision needs neither). Weight rows are `d+1` wide, bias last,
/// in standardized feature space; the standardizer and the per-feature
/// input scales both fold into the baked constants.
void lower_net_linear(LowerCtx& ctx, const ml::LinearModel& model) {
  const std::vector<std::vector<double>>& weights = model.weights();
  const ml::Standardizer& standardizer = model.standardizer();
  const std::size_t k = weights.size();
  HMD_REQUIRE(k >= 2, "compile: linear model is not trained");
  const std::size_t d = standardizer.num_features();
  HMD_REQUIRE(d <= ctx.nl.num_features(),
              "compile: model references a feature beyond the port list");

  // Fold: w'_f = w_f/sigma_f (input units), bias -= w_f*mu_f/sigma_f, then
  // divide by the input pre-scale so products against port raws land back
  // on the Q16.16 score grid.
  std::vector<std::vector<double>> folded(k, std::vector<double>(d, 0.0));
  std::vector<double> bias(k, 0.0);
  double max_w = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    bias[c] = weights[c][d];
    for (std::size_t f = 0; f < d; ++f) {
      const double sd = standardizer.stddevs()[f];
      if (sd > 0.0) {
        folded[c][f] = weights[c][f] / sd / ctx.scales[f];
        bias[c] -= weights[c][f] * standardizer.means()[f] / sd;
      }
      max_w = std::max(max_w, std::abs(folded[c][f]));
    }
  }
  const std::uint32_t shift = weight_shift(max_w);

  std::vector<NetId> inputs(d);
  for (std::size_t f = 0; f < d; ++f) inputs[f] = ctx.in(f);
  std::vector<NetId> scores(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<NetId> terms;
    terms.reserve(d + 1);
    for (std::size_t f = 0; f < d; ++f)
      terms.push_back(ctx.nl.mul(
          inputs[f],
          ctx.nl.constant(NetType::kWide, weight_raw(folded[c][f], shift)),
          shift));
    terms.push_back(ctx.nl.constant(NetType::kWide, q16_raw(bias[c])));
    scores[c] = sum_tree(ctx.nl, std::move(terms));
  }
  ctx.nl.set_output(ctx.nl.argmax(std::move(scores)));
}

/// Gaussian log-density term for NaiveBayes ROM entries, clamped so the
/// Q16.16 raw (and any sum of them) stays far from the 64-bit edge.
std::int64_t log_density_raw(double x, double mean, double var) {
  const double lp = -0.5 * std::log(2.0 * std::numbers::pi * var) -
                    (x - mean) * (x - mean) / (2.0 * var);
  return q16_raw(std::clamp(lp, -1e9, 1e9));
}

/// Builds a saturating ROM over feature f's raw input range [-R, +R].
LutRom gaussian_lut(const LowerCtx& ctx, std::size_t f, double absmax,
                    double mean, double var, std::size_t size) {
  LutRom rom;
  rom.kind = LutRom::Kind::kGaussian;
  const double scale = ctx.scales[f];
  const std::int64_t hi = q16_raw(std::max(absmax, 1e-12) * scale);
  rom.lo_raw = -hi;
  std::uint32_t shift = 0;
  while ((std::int64_t{1} << shift) * static_cast<std::int64_t>(size) <
         2 * hi)
    ++shift;
  rom.step_shift = shift;
  rom.values.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::int64_t center = rom.lo_raw +
                                (static_cast<std::int64_t>(i) << shift) +
                                (std::int64_t{1} << shift) / 2;
    const double x = q16_value(center) / scale;
    rom.values[i] = log_density_raw(x, mean, var);
  }
  return rom;
}

void lower_net_naive_bayes(LowerCtx& ctx, const ml::NaiveBayes& model,
                           const std::vector<double>& absmax,
                           std::size_t lut_size) {
  const std::size_t k = model.num_classes();
  HMD_REQUIRE(k >= 2, "compile: NaiveBayes model is not trained");
  const std::size_t d = model.means().front().size();
  HMD_REQUIRE(d <= ctx.nl.num_features(),
              "compile: model references a feature beyond the port list");

  std::vector<NetId> inputs(d);
  for (std::size_t f = 0; f < d; ++f) inputs[f] = ctx.in(f);
  std::vector<NetId> scores(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<NetId> terms;
    terms.reserve(d + 1);
    for (std::size_t f = 0; f < d; ++f) {
      const std::uint32_t table = ctx.nl.add_lut(
          gaussian_lut(ctx, f, absmax[f], model.means()[c][f],
                       model.variances()[c][f], lut_size));
      terms.push_back(ctx.nl.lut_rom(table, inputs[f]));
    }
    terms.push_back(ctx.nl.constant(
        NetType::kWide, q16_raw(std::log(model.priors()[c]))));
    scores[c] = sum_tree(ctx.nl, std::move(terms));
  }
  ctx.nl.set_output(ctx.nl.argmax(std::move(scores)));
}

/// Sigmoid ROM over the pre-activation score grid: +-16 covers the curve
/// to under 1.2e-7 saturation error.
LutRom sigmoid_lut(std::size_t size) {
  LutRom rom;
  rom.kind = LutRom::Kind::kSigmoid;
  constexpr std::int64_t kHalfSpan = std::int64_t{16} << 16;
  rom.lo_raw = -kHalfSpan;
  std::uint32_t shift = 0;
  while ((std::int64_t{1} << shift) * static_cast<std::int64_t>(size) <
         2 * kHalfSpan)
    ++shift;
  rom.step_shift = shift;
  rom.values.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::int64_t center = rom.lo_raw +
                                (static_cast<std::int64_t>(i) << shift) +
                                (std::int64_t{1} << shift) / 2;
    const double x = q16_value(center);
    rom.values[i] = q16_raw(1.0 / (1.0 + std::exp(-x)));
  }
  return rom;
}

void lower_net_mlp(LowerCtx& ctx, const ml::Mlp& model,
                   std::size_t lut_size) {
  const std::size_t k = model.num_classes();
  HMD_REQUIRE(k >= 2, "compile: MLP model is not trained");
  const ml::Standardizer& std_ = model.standardizer();
  const std::size_t d = std_.num_features();
  HMD_REQUIRE(d <= ctx.nl.num_features(),
              "compile: model references a feature beyond the port list");
  const std::size_t h = model.hidden_units();

  // Hidden layer: folded affine + sigmoid ROM (one shared table).
  std::vector<std::vector<double>> w1(h, std::vector<double>(d, 0.0));
  std::vector<double> b1(h, 0.0);
  double max_w1 = 0.0;
  for (std::size_t j = 0; j < h; ++j) {
    b1[j] = model.w1()[j][d];
    for (std::size_t f = 0; f < d; ++f) {
      const double sd = std_.stddevs()[f];
      if (sd > 0.0) {
        w1[j][f] = model.w1()[j][f] / sd / ctx.scales[f];
        b1[j] -= model.w1()[j][f] * std_.means()[f] / sd;
      }
      max_w1 = std::max(max_w1, std::abs(w1[j][f]));
    }
  }
  const std::uint32_t shift1 = weight_shift(max_w1);
  const std::uint32_t sig_table = ctx.nl.add_lut(sigmoid_lut(lut_size));

  std::vector<NetId> inputs(d);
  for (std::size_t f = 0; f < d; ++f) inputs[f] = ctx.in(f);
  std::vector<NetId> hidden(h);
  for (std::size_t j = 0; j < h; ++j) {
    std::vector<NetId> terms;
    terms.reserve(d + 1);
    for (std::size_t f = 0; f < d; ++f)
      terms.push_back(ctx.nl.mul(
          inputs[f],
          ctx.nl.constant(NetType::kWide, weight_raw(w1[j][f], shift1)),
          shift1));
    terms.push_back(ctx.nl.constant(NetType::kWide, q16_raw(b1[j])));
    hidden[j] = ctx.nl.lut_rom(sig_table, sum_tree(ctx.nl, std::move(terms)));
  }

  // Output layer: activations are already value-domain Q16.16 in (0, 1).
  double max_w2 = 0.0;
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t j = 0; j < h; ++j)
      max_w2 = std::max(max_w2, std::abs(model.w2()[c][j]));
  const std::uint32_t shift2 = weight_shift(max_w2);
  std::vector<NetId> scores(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<NetId> terms;
    terms.reserve(h + 1);
    for (std::size_t j = 0; j < h; ++j)
      terms.push_back(ctx.nl.mul(
          hidden[j],
          ctx.nl.constant(NetType::kWide,
                          weight_raw(model.w2()[c][j], shift2)),
          shift2));
    terms.push_back(
        ctx.nl.constant(NetType::kWide, q16_raw(model.w2()[c][h])));
    scores[c] = sum_tree(ctx.nl, std::move(terms));
  }
  ctx.nl.set_output(ctx.nl.argmax(std::move(scores)));
}

// -- calibration ------------------------------------------------------------

void note_threshold(std::vector<double>& mag, std::size_t f, double t) {
  if (f < mag.size() && std::isfinite(t))
    mag[f] = std::max(mag[f], std::abs(t));
}

void collect_j48(std::vector<double>& mag, const ml::J48::Node& node) {
  if (node.is_leaf()) return;
  note_threshold(mag, node.feature, node.threshold);
  collect_j48(mag, *node.left);
  collect_j48(mag, *node.right);
}

/// Static power scales with occupied area, dynamic with inference rate.
void finalize_power(SynthesisReport& report, double inferences_per_second) {
  report.static_power_mw = 0.015 * report.area_slices() / 10.0;
  report.dynamic_power_mw = report.energy_per_inference_pj * 1e-12 *
                            inferences_per_second * 1e3;
}

std::vector<double> standardizer_absmax(const ml::Standardizer& std_,
                                        std::size_t num_features) {
  std::vector<double> absmax(num_features, 1.0);
  for (std::size_t f = 0; f < std_.num_features() && f < num_features; ++f)
    absmax[f] = std::abs(std_.means()[f]) + 6.0 * std_.stddevs()[f];
  return absmax;
}

}  // namespace

bool compile_supported(const ml::Classifier& clf) {
  return ml::is_rtl_scheme(clf.unwrap().name());
}

std::vector<double> model_feature_absmax(const ml::Classifier& clf,
                                         std::size_t num_features) {
  const ml::Classifier& u = clf.unwrap();
  if (const auto* m = dynamic_cast<const ml::LinearModel*>(&u))
    return standardizer_absmax(m->standardizer(), num_features);
  if (const auto* m = dynamic_cast<const ml::Mlp*>(&u))
    return standardizer_absmax(m->standardizer(), num_features);
  if (const auto* m = dynamic_cast<const ml::NaiveBayes*>(&u)) {
    std::vector<double> absmax(num_features, 1.0);
    for (std::size_t c = 0; c < m->num_classes(); ++c)
      for (std::size_t f = 0;
           f < m->means()[c].size() && f < num_features; ++f)
        absmax[f] = std::max(absmax[f], std::abs(m->means()[c][f]) +
                                            6.0 * std::sqrt(m->variances()[c][f]));
    return absmax;
  }
  // Tree/rule family: the grid only has to resolve the baked thresholds —
  // twice the largest magnitude per feature keeps every compare in range.
  std::vector<double> mag(num_features, 0.0);
  if (const auto* oner = dynamic_cast<const ml::OneR*>(&u)) {
    for (const auto& iv : oner->intervals())
      note_threshold(mag, oner->chosen_feature(), iv.upper_bound);
  } else if (const auto* stump = dynamic_cast<const ml::DecisionStump*>(&u)) {
    note_threshold(mag, stump->split_feature(), stump->split_threshold());
  } else if (const auto* tree = dynamic_cast<const ml::J48*>(&u)) {
    collect_j48(mag, tree->root());
  } else if (const auto* rip = dynamic_cast<const ml::JRip*>(&u)) {
    for (const auto& rule : rip->rules())
      for (const auto& c : rule.conditions)
        note_threshold(mag, c.feature, c.threshold);
  } else {
    HMD_REQUIRE(false, "model_feature_absmax: no netlist lowering for " +
                           u.name());
  }
  std::vector<double> absmax(num_features);
  for (std::size_t f = 0; f < num_features; ++f)
    absmax[f] = std::max(1.0, 2.0 * mag[f]);
  return absmax;
}

Result<CompiledDesign> try_compile(const ml::Classifier& clf,
                                   CompileOptions options) {
  const ml::Classifier& u = clf.unwrap();
  if (!compile_supported(u))
    return ErrorInfo(ErrCode::kPrecondition,
                     "no netlist lowering for scheme '" + u.name() +
                         "' (RTL-supported schemes compile; IBk/ZeroR/"
                         "ensembles/one-class do not)")
        .with_context("hw::compile");
  return capture_result([&]() -> CompiledDesign {
    HMD_REQUIRE(u.num_classes() >= 2, "compile: model is not trained");
    HMD_REQUIRE(options.num_features >= 1,
                "CompileOptions.num_features is required");
    HMD_REQUIRE(!options.module_name.empty(),
                "CompileOptions.module_name must not be empty");
    HMD_REQUIRE(options.lut_size >= 2 &&
                    (options.lut_size & (options.lut_size - 1)) == 0 &&
                    options.lut_size <= (1u << 16),
                "CompileOptions.lut_size must be a power of two in [2, 65536]");
    HMD_REQUIRE(options.clock_mhz > 0.0,
                "CompileOptions.clock_mhz must be positive");

    std::vector<double> absmax = options.feature_absmax.empty()
                                     ? model_feature_absmax(u, options.num_features)
                                     : options.feature_absmax;
    HMD_REQUIRE(absmax.size() == options.num_features,
                "CompileOptions.feature_absmax width mismatch");
    std::vector<double> scales(absmax.size());
    for (std::size_t f = 0; f < absmax.size(); ++f) {
      absmax[f] = std::max(absmax[f], 1e-12);
      scales[f] = q16_input_scale(absmax[f]);
    }

    LowerCtx ctx{Netlist(options.num_features, u.num_classes()), scales};
    if (const auto* oner = dynamic_cast<const ml::OneR*>(&u))
      lower_net_one_r(ctx, *oner);
    else if (const auto* stump = dynamic_cast<const ml::DecisionStump*>(&u))
      lower_net_stump(ctx, *stump);
    else if (const auto* tree = dynamic_cast<const ml::J48*>(&u))
      lower_net_j48(ctx, *tree);
    else if (const auto* rip = dynamic_cast<const ml::JRip*>(&u))
      lower_net_jrip(ctx, *rip);
    else if (const auto* nb = dynamic_cast<const ml::NaiveBayes*>(&u))
      lower_net_naive_bayes(ctx, *nb, absmax, options.lut_size);
    else if (const auto* linear = dynamic_cast<const ml::LinearModel*>(&u))
      lower_net_linear(ctx, *linear);
    else if (const auto* mlp = dynamic_cast<const ml::Mlp*>(&u))
      lower_net_mlp(ctx, *mlp, options.lut_size);
    else
      HMD_REQUIRE(false, "compile: no netlist lowering for " + u.name());

    return CompiledDesign(std::move(ctx.nl), u.name(),
                          std::move(options.module_name), std::move(absmax),
                          std::move(scales), options.clock_mhz,
                          options.inferences_per_second);
  });
}

CompiledDesign compile(const ml::Classifier& clf, CompileOptions options) {
  return std::move(try_compile(clf, std::move(options)).value());
}

std::string CompiledDesign::emit(const Backend& backend) const {
  return backend.emit(*this);
}

SynthesisReport CompiledDesign::report(
    const OperatorAllocation& allocation) const {
  SynthesisReport report;
  report.design_name = scheme_;
  report.clock_mhz = clock_mhz_;
  report.resources = netlist_.total_resources(allocation);
  report.latency_cycles = netlist_.schedule(allocation).latency_cycles;
  report.energy_per_inference_pj = netlist_.total_energy_pj();
  finalize_power(report, inferences_per_second_);
  return report;
}

std::string SynthesisReport::to_string() const {
  std::ostringstream os;
  os << "design " << design_name << ": " << resources.luts << " LUT, "
     << resources.ffs << " FF, " << resources.dsps << " DSP, "
     << resources.brams << " BRAM (" << area_slices() << " slice-eq), "
     << latency_cycles << " cycles @ " << clock_mhz << " MHz ("
     << latency_us() << " us), " << total_power_mw() << " mW";
  return os.str();
}

}  // namespace hmd::hw
