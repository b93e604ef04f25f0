#include "ml/serialization.hpp"

#include <cstdlib>
#include <istream>
#include <ostream>
#include <span>
#include <type_traits>

#include "ml/anomaly.hpp"
#include "ml/decision_stump.hpp"
#include "ml/ensemble.hpp"
#include "ml/j48.hpp"
#include "ml/jrip.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/mlp.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/one_class.hpp"
#include "ml/one_r.hpp"
#include "ml/registry.hpp"
#include "ml/svm.hpp"
#include "ml/zero_r.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace hmd::ml {

namespace {

/// Exact double encoding (hexfloat; strtod parses it back bit-identically).
std::string enc(double v) { return format("%a", v); }

double dec(const std::string& token) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end != begin + token.size())
    throw ParseError("model: bad double token '" + token + "'");
  return v;
}

/// Tokenized line reader with one-token lookahead-free semantics.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  /// Next non-empty line's tokens; throws at EOF.
  std::vector<std::string> line() {
    std::string raw;
    while (std::getline(in_, raw)) {
      std::vector<std::string> tokens;
      for (const auto& t : split(raw, ' '))
        if (!trim(t).empty()) tokens.emplace_back(trim(t));
      if (!tokens.empty()) return tokens;
    }
    throw ParseError("model: unexpected end of input");
  }

  /// Next line must start with `key`; returns the remaining tokens.
  std::vector<std::string> expect(const std::string& key) {
    auto tokens = line();
    if (tokens.front() != key)
      throw ParseError("model: expected '" + key + "', got '" +
                       tokens.front() + "'");
    tokens.erase(tokens.begin());
    return tokens;
  }

  /// Next line must be `key <value>`; returns the value token.
  std::string expect_one(const std::string& key) {
    const auto tokens = expect(key);
    if (tokens.size() != 1)
      throw ParseError("model: '" + key + "' needs one value");
    return tokens[0];
  }

  std::size_t expect_size(const std::string& key) {
    return static_cast<std::size_t>(parse_int(expect_one(key)));
  }

 private:
  std::istream& in_;
};

/// Class index `token` of the named field, checked against the header's
/// class count so a corrupt file fails here rather than at the first
/// prediction.
std::size_t class_index(const std::string& token, std::size_t classes,
                        const std::string& field) {
  const long long v = parse_int(token);
  if (v < 0 || static_cast<unsigned long long>(v) >= classes)
    throw ParseError("model: " + field + " " + token + " out of range for " +
                     std::to_string(classes) + " classes");
  return static_cast<std::size_t>(v);
}

void write_vector(std::ostream& out, const std::string& key,
                  std::span<const double> v) {
  out << key;
  for (double x : v) out << ' ' << enc(x);
  out << '\n';
}

/// Every value on the `key` line, however many there are.
std::vector<double> read_doubles(Reader& reader, const std::string& key) {
  std::vector<double> v;
  for (const auto& t : reader.expect(key)) v.push_back(dec(t));
  return v;
}

std::vector<double> read_vector(Reader& reader, const std::string& key,
                                std::size_t expected) {
  std::vector<double> v = read_doubles(reader, key);
  if (v.size() != expected)
    throw ParseError("model: '" + key + "' expected " +
                     std::to_string(expected) + " values, got " +
                     std::to_string(v.size()));
  return v;
}

void write_matrix(std::ostream& out, const std::string& key,
                  const std::vector<std::vector<double>>& m) {
  out << key << ' ' << m.size() << ' '
      << (m.empty() ? 0 : m.front().size()) << '\n';
  for (const auto& row : m) write_vector(out, "row", row);
}

std::vector<std::vector<double>> read_matrix(Reader& reader,
                                             const std::string& key) {
  const auto dims = reader.expect(key);
  if (dims.size() != 2) throw ParseError("model: bad matrix header");
  const auto rows = static_cast<std::size_t>(parse_int(dims[0]));
  const auto cols = static_cast<std::size_t>(parse_int(dims[1]));
  std::vector<std::vector<double>> m;
  for (std::size_t r = 0; r < rows; ++r)
    m.push_back(read_vector(reader, "row", cols));
  return m;
}

/// Flat row-major points of width `dim`, written in write_matrix's layout
/// (one "row" line per point).
void write_points(std::ostream& out, const std::vector<double>& flat,
                  std::size_t dim) {
  const std::size_t n = dim == 0 ? 0 : flat.size() / dim;
  out << "points " << n << ' ' << (n == 0 ? 0 : dim) << '\n';
  for (std::size_t r = 0; r < n; ++r)
    write_vector(out, "row", {flat.data() + r * dim, dim});
}

/// Reads a write_points block of at least one point, each `dim` wide.
std::vector<double> read_points(Reader& reader, std::size_t dim,
                                const std::string& scheme) {
  std::vector<double> flat;
  for (const auto& row : read_matrix(reader, "points")) {
    if (row.size() != dim)
      throw ParseError("model: " + scheme + " point width mismatch");
    flat.insert(flat.end(), row.begin(), row.end());
  }
  if (flat.empty()) throw ParseError("model: " + scheme + " has no points");
  return flat;
}

void write_j48_node(std::ostream& out, const J48::Node& node) {
  if (node.is_leaf()) {
    out << "leaf " << node.cls << ' ' << node.n << ' ' << node.errors
        << '\n';
    return;
  }
  out << "split " << node.feature << ' ' << enc(node.threshold) << ' '
      << node.cls << ' ' << node.n << ' ' << node.errors << '\n';
  write_j48_node(out, *node.left);
  write_j48_node(out, *node.right);
}

std::unique_ptr<J48::Node> read_j48_node(Reader& reader,
                                         std::size_t classes) {
  const auto tokens = reader.line();
  auto node = std::make_unique<J48::Node>();
  if (tokens.front() == "leaf") {
    if (tokens.size() != 4) throw ParseError("model: bad leaf line");
    node->cls = class_index(tokens[1], classes, "J48 leaf class");
    node->n = static_cast<std::size_t>(parse_int(tokens[2]));
    node->errors = static_cast<std::size_t>(parse_int(tokens[3]));
    return node;
  }
  if (tokens.front() != "split" || tokens.size() != 6)
    throw ParseError("model: bad tree line");
  node->feature = static_cast<std::size_t>(parse_int(tokens[1]));
  node->threshold = dec(tokens[2]);
  node->cls = class_index(tokens[3], classes, "J48 split class");
  node->n = static_cast<std::size_t>(parse_int(tokens[4]));
  node->errors = static_cast<std::size_t>(parse_int(tokens[5]));
  node->left = read_j48_node(reader, classes);
  node->right = read_j48_node(reader, classes);
  return node;
}

/// Scheme-dispatched body save shared by save_model and nested committee
/// members; throws PreconditionError for schemes without a codec.
void save_body(std::ostream& out, const Classifier& wrapped);
/// Scheme-dispatched body load; throws ParseError for unknown schemes.
std::unique_ptr<Classifier> load_body(Reader& reader,
                                      const std::string& scheme,
                                      std::size_t classes);

}  // namespace

/// Private-state access point (befriended by the supported classifiers):
/// one save and one load per scheme family, registered in kCodecs below.
struct ModelIo {
  static void save(std::ostream& out, const ZeroR& m) {
    HMD_REQUIRE(!m.priors_.empty(), "save_model: untrained ZeroR");
    out << "majority " << m.majority_ << '\n';
    write_vector(out, "priors", m.priors_);
  }
  static void load(Reader& in, std::size_t classes, ZeroR& m) {
    m.majority_ = class_index(in.expect_one("majority"), classes,
                              "ZeroR majority");
    m.priors_ = read_vector(in, "priors", classes);
  }

  static void save(std::ostream& out, const OneR& m) {
    HMD_REQUIRE(m.trained_, "save_model: untrained OneR");
    out << "feature " << m.feature_ << '\n';
    out << "training_error " << enc(m.training_error_) << '\n';
    out << "intervals " << m.intervals_.size() << '\n';
    for (const auto& iv : m.intervals_)
      out << "interval " << enc(iv.upper_bound) << ' ' << iv.cls << '\n';
  }
  static void load(Reader& in, std::size_t classes, OneR& m) {
    m.num_classes_ = classes;
    m.feature_ = in.expect_size("feature");
    m.training_error_ = dec(in.expect_one("training_error"));
    const std::size_t n = in.expect_size("intervals");
    for (std::size_t i = 0; i < n; ++i) {
      const auto tokens = in.expect("interval");
      if (tokens.size() != 2) throw ParseError("model: bad interval");
      m.intervals_.push_back(
          {.upper_bound = dec(tokens[0]),
           .cls = class_index(tokens[1], classes, "OneR interval class")});
    }
    if (m.intervals_.empty()) throw ParseError("model: OneR no intervals");
    m.trained_ = true;
  }

  static void save(std::ostream& out, const DecisionStump& m) {
    HMD_REQUIRE(m.trained_, "save_model: untrained DecisionStump");
    out << "split " << m.feature_ << ' ' << enc(m.threshold_) << ' '
        << m.left_class_ << ' ' << m.right_class_ << '\n';
  }
  static void load(Reader& in, std::size_t classes, DecisionStump& m) {
    m.num_classes_ = classes;
    const auto tokens = in.expect("split");
    if (tokens.size() != 4) throw ParseError("model: bad stump");
    m.feature_ = static_cast<std::size_t>(parse_int(tokens[0]));
    m.threshold_ = dec(tokens[1]);
    m.left_class_ =
        class_index(tokens[2], classes, "DecisionStump left class");
    m.right_class_ =
        class_index(tokens[3], classes, "DecisionStump right class");
    m.trained_ = true;
  }

  static void save(std::ostream& out, const J48& m) {
    HMD_REQUIRE(m.root_ != nullptr, "save_model: untrained J48");
    write_j48_node(out, *m.root_);
  }
  static void load(Reader& in, std::size_t classes, J48& m) {
    m.num_classes_ = classes;
    m.root_ = read_j48_node(in, classes);
  }

  static void save(std::ostream& out, const JRip& m) {
    HMD_REQUIRE(m.trained_, "save_model: untrained JRip");
    out << "default " << m.default_class_ << '\n';
    out << "rules " << m.rules_.size() << '\n';
    for (const auto& rule : m.rules_) {
      out << "rule " << rule.cls << ' ' << rule.conditions.size() << '\n';
      for (const auto& cond : rule.conditions)
        out << "cond " << cond.feature << ' ' << (cond.greater ? 1 : 0)
            << ' ' << enc(cond.threshold) << '\n';
    }
  }
  static void load(Reader& in, std::size_t classes, JRip& m) {
    m.num_classes_ = classes;
    m.default_class_ =
        class_index(in.expect_one("default"), classes, "JRip default class");
    const std::size_t n_rules = in.expect_size("rules");
    for (std::size_t r = 0; r < n_rules; ++r) {
      const auto head = in.expect("rule");
      if (head.size() != 2) throw ParseError("model: bad rule header");
      JRip::Rule rule;
      rule.cls = class_index(head[0], classes, "JRip rule class");
      const auto n_conds = static_cast<std::size_t>(parse_int(head[1]));
      for (std::size_t c = 0; c < n_conds; ++c) {
        const auto tokens = in.expect("cond");
        if (tokens.size() != 3) throw ParseError("model: bad condition");
        rule.conditions.push_back(
            {.feature = static_cast<std::size_t>(parse_int(tokens[0])),
             .greater = parse_int(tokens[1]) != 0,
             .threshold = dec(tokens[2])});
      }
      m.rules_.push_back(std::move(rule));
    }
    m.trained_ = true;
  }

  static void save(std::ostream& out, const NaiveBayes& m) {
    HMD_REQUIRE(!m.priors_.empty(), "save_model: untrained NaiveBayes");
    write_vector(out, "priors", m.priors_);
    write_matrix(out, "means", m.mean_);
    write_matrix(out, "variances", m.var_);
  }
  static void load(Reader& in, std::size_t classes, NaiveBayes& m) {
    m.priors_ = read_doubles(in, "priors");
    m.mean_ = read_matrix(in, "means");
    m.var_ = read_matrix(in, "variances");
    if (m.priors_.size() != classes || m.mean_.size() != classes ||
        m.var_.size() != classes)
      throw ParseError("model: NaiveBayes shape mismatch");
  }

  static void write_standardizer(std::ostream& out, const Standardizer& s) {
    write_vector(out, "standardizer_mean", s.means());
    write_vector(out, "standardizer_sd", s.stddevs());
  }
  static Standardizer read_standardizer(Reader& in) {
    Standardizer s;
    s.mean_ = read_doubles(in, "standardizer_mean");
    s.stddev_ = read_doubles(in, "standardizer_sd");
    if (s.mean_.size() != s.stddev_.size())
      throw ParseError("model: standardizer width mismatch");
    return s;
  }

  /// MLR and SVM: the shared linear core's standardizer and weights.
  static void save(std::ostream& out, const LinearModel& m) {
    HMD_REQUIRE(!m.weights_.empty(), "save_model: untrained " + m.name());
    write_standardizer(out, m.standardizer_);
    write_matrix(out, "weights", m.weights_);
  }
  static void load(Reader& in, std::size_t classes, LinearModel& m) {
    m.standardizer_ = read_standardizer(in);
    m.weights_ = read_matrix(in, "weights");
    if (m.weights_.size() != classes)
      throw ParseError("model: " + m.name() + " shape mismatch");
    m.build_packed();
  }

  static void save(std::ostream& out, const Mlp& m) {
    HMD_REQUIRE(!m.w2_.empty(), "save_model: untrained MLP");
    write_standardizer(out, m.standardizer_);
    write_matrix(out, "w1", m.w1_);
    write_matrix(out, "w2", m.w2_);
  }
  static void load(Reader& in, std::size_t classes, Mlp& m) {
    m.standardizer_ = read_standardizer(in);
    m.w1_ = read_matrix(in, "w1");
    m.w2_ = read_matrix(in, "w2");
    if (m.w2_.size() != classes)
      throw ParseError("model: MLP shape mismatch");
    m.build_packed();
  }

  static void save(std::ostream& out, const Knn& m) {
    HMD_REQUIRE(!m.points_.empty(), "save_model: untrained IBk");
    out << "k " << m.k_ << '\n';
    write_standardizer(out, m.standardizer_);
    out << "labels";
    for (std::size_t l : m.labels_) out << ' ' << l;
    out << '\n';
    write_points(out, m.points_, m.standardizer_.means().size());
  }
  static void load(Reader& in, std::size_t classes, Knn& m) {
    m.num_classes_ = classes;
    m.k_ = in.expect_size("k");
    m.standardizer_ = read_standardizer(in);
    for (const auto& t : in.expect("labels"))
      m.labels_.push_back(class_index(t, classes, "IBk label"));
    m.points_ = read_points(in, m.standardizer_.means().size(), "IBk");
    if (m.points_.size() != m.labels_.size() * m.standardizer_.means().size())
      throw ParseError("model: IBk shape mismatch");
    m.build_quantized();
    m.build_index();
  }

  /// The mean/precision block both Mahalanobis schemes store.
  static void save_detector(std::ostream& out, const MahalanobisDetector& d) {
    write_vector(out, "mean", d.mean_);
    out << "precision " << d.precision_.rows() << ' ' << d.precision_.cols()
        << '\n';
    for (std::size_t r = 0; r < d.precision_.rows(); ++r)
      write_vector(out, "row", d.precision_.row(r));
  }
  static void load_detector(Reader& in, const std::string& scheme,
                            MahalanobisDetector& d) {
    d.mean_ = read_doubles(in, "mean");
    const auto precision = read_matrix(in, "precision");
    const std::size_t n = d.mean_.size();
    if (precision.size() != n || n == 0)
      throw ParseError("model: " + scheme + " shape mismatch");
    d.precision_ = Matrix(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      if (precision[r].size() != n)
        throw ParseError("model: " + scheme + " precision not square");
      for (std::size_t c = 0; c < n; ++c) d.precision_(r, c) = precision[r][c];
    }
  }

  static void save(std::ostream& out, const AnomalyClassifier& m) {
    HMD_REQUIRE(m.detector_.fitted(), "save_model: untrained Mahalanobis");
    save_detector(out, m.detector_);
    out << "threshold " << enc(m.detector_.threshold_) << '\n';
  }
  static void load(Reader& in, std::size_t, AnomalyClassifier& m) {
    load_detector(in, "Mahalanobis", m.detector_);
    m.detector_.threshold_ = dec(in.expect_one("threshold"));
  }

  /// Shared tail of every one-class block: the calibrated sigmoid.
  static void save_calibration(std::ostream& out,
                               const OneClassClassifier& m) {
    out << "threshold " << enc(m.threshold_) << '\n';
    out << "scale " << enc(m.scale_) << '\n';
  }
  static void load_calibration(Reader& in, OneClassClassifier& m) {
    m.threshold_ = dec(in.expect_one("threshold"));
    m.scale_ = dec(in.expect_one("scale"));
    if (m.scale_ <= 0.0)
      throw ParseError("model: one-class scale must be positive");
  }

  static void save(std::ostream& out, const OneClassSvm& m) {
    HMD_REQUIRE(m.calibrated(), "save_model: untrained OneClassSvm");
    write_vector(out, "mean", m.mean_);
    write_vector(out, "sd", m.sd_);
    write_vector(out, "weights", m.weights_);
    out << "rho " << enc(m.rho_) << '\n';
    save_calibration(out, m);
  }
  static void load(Reader& in, std::size_t, OneClassSvm& m) {
    m.mean_ = read_doubles(in, "mean");
    m.sd_ = read_vector(in, "sd", m.mean_.size());
    m.weights_ = read_vector(in, "weights", 2 * m.mean_.size());
    if (m.mean_.empty())
      throw ParseError("model: OneClassSvm shape mismatch");
    m.rho_ = dec(in.expect_one("rho"));
    load_calibration(in, m);
  }

  static void save(std::ostream& out, const KdeAnomaly& m) {
    HMD_REQUIRE(m.calibrated(), "save_model: untrained KdeAnomaly");
    write_vector(out, "mean", m.mean_);
    write_vector(out, "sd", m.sd_);
    out << "bandwidth " << enc(m.bandwidth_) << '\n';
    write_points(out, m.points_, m.mean_.size());
    save_calibration(out, m);
  }
  static void load(Reader& in, std::size_t, KdeAnomaly& m) {
    m.mean_ = read_doubles(in, "mean");
    m.sd_ = read_vector(in, "sd", m.mean_.size());
    m.bandwidth_ = dec(in.expect_one("bandwidth"));
    if (m.mean_.empty() || m.bandwidth_ <= 0.0)
      throw ParseError("model: KdeAnomaly shape mismatch");
    m.points_ = read_points(in, m.mean_.size(), "KdeAnomaly");
    load_calibration(in, m);
  }

  static void save(std::ostream& out, const MahalanobisThreshold& m) {
    HMD_REQUIRE(m.calibrated(), "save_model: untrained MahalanobisThreshold");
    save_detector(out, m.detector_);
    save_calibration(out, m);
  }
  static void load(Reader& in, std::size_t, MahalanobisThreshold& m) {
    load_detector(in, "MahalanobisThreshold", m.detector_);
    load_calibration(in, m);
    // The embedded detector thresholds at the same calibrated score.
    m.detector_.threshold_ = m.threshold_;
  }

  /// Committee block: alphas (AdaBoost only) plus each member as a nested
  /// "member <scheme>" block in the member scheme's own format.
  static void save_committee(
      std::ostream& out,
      const std::vector<std::unique_ptr<Classifier>>& members,
      const std::vector<double>* alphas) {
    out << "members " << members.size() << '\n';
    if (alphas != nullptr) write_vector(out, "alphas", *alphas);
    for (const auto& member : members) {
      out << "member " << member->name() << '\n';
      save_body(out, *member);
    }
  }
  /// Reads a save_committee block; fills `alphas` when it is non-null.
  static std::vector<std::unique_ptr<Classifier>> load_committee(
      Reader& in, std::size_t classes, std::vector<double>* alphas) {
    const std::size_t n_members = in.expect_size("members");
    if (n_members == 0) throw ParseError("model: empty committee");
    if (alphas != nullptr) *alphas = read_vector(in, "alphas", n_members);
    std::vector<std::unique_ptr<Classifier>> members;
    for (std::size_t i = 0; i < n_members; ++i)
      members.push_back(load_body(in, in.expect_one("member"), classes));
    return members;
  }

  static void save(std::ostream& out, const AdaBoostM1& m) {
    HMD_REQUIRE(!m.members_.empty(), "save_model: untrained AdaBoostM1");
    save_committee(out, m.members_, &m.alphas_);
  }
  static void load(Reader& in, std::size_t classes, AdaBoostM1& m) {
    m.num_classes_ = classes;
    m.members_ = load_committee(in, classes, &m.alphas_);
  }

  static void save(std::ostream& out, const Bagging& m) {
    HMD_REQUIRE(!m.members_.empty(), "save_model: untrained Bagging");
    save_committee(out, m.members_, nullptr);
  }
  static void load(Reader& in, std::size_t classes, Bagging& m) {
    m.num_classes_ = classes;
    m.members_ = load_committee(in, classes, nullptr);
  }
};

namespace {

/// One row per scheme name: how to write its body and how to read it back.
struct Codec {
  const char* scheme;
  void (*save)(std::ostream&, const Classifier&);
  std::unique_ptr<Classifier> (*load)(Reader&, std::size_t classes);
};

/// The row's class, or a PreconditionError when a classifier reports a
/// registered scheme name without being that scheme's class.
template <class T>
const T& checked(const Classifier& clf) {
  const auto* m = dynamic_cast<const T*>(&clf);
  if (m == nullptr)
    throw PreconditionError("save_model: '" + clf.name() +
                            "' is not the registered class of that scheme");
  return *m;
}

template <class T>
constexpr Codec codec(const char* scheme) {
  return {scheme,
          [](std::ostream& out, const Classifier& clf) {
            ModelIo::save(out, checked<T>(clf));
          },
          [](Reader& in, std::size_t classes) -> std::unique_ptr<Classifier> {
            std::unique_ptr<T> m;
            // A committee's factory is only needed to (re)train; a loaded
            // committee is inference-only until train() gets a fresh one.
            if constexpr (std::is_default_constructible_v<T>)
              m = std::make_unique<T>();
            else
              m = std::make_unique<T>(BaseFactory{});
            ModelIo::load(in, classes, *m);
            return m;
          }};
}

const Codec kCodecs[] = {
    codec<ZeroR>("ZeroR"),
    codec<OneR>("OneR"),
    codec<DecisionStump>("DecisionStump"),
    codec<J48>("J48"),
    codec<JRip>("JRip"),
    codec<NaiveBayes>("NaiveBayes"),
    codec<Logistic>("MLR"),
    codec<LinearSvm>("SVM"),
    codec<Mlp>("MLP"),
    codec<Knn>("IBk"),
    codec<AdaBoostM1>("AdaBoostM1"),
    codec<Bagging>("Bagging"),
    codec<AnomalyClassifier>("Mahalanobis"),
    codec<OneClassSvm>("OneClassSvm"),
    codec<KdeAnomaly>("KdeAnomaly"),
    codec<MahalanobisThreshold>("MahalanobisThreshold"),
};

const Codec* find_codec(const std::string& scheme) {
  for (const Codec& c : kCodecs)
    if (scheme == c.scheme) return &c;
  return nullptr;
}

void save_body(std::ostream& out, const Classifier& wrapped) {
  const Classifier& clf = wrapped.unwrap();
  const Codec* c = find_codec(clf.name());
  if (c == nullptr)
    throw PreconditionError("save_model: no serialization for " + clf.name());
  c->save(out, clf);
}

std::unique_ptr<Classifier> load_body(Reader& reader,
                                      const std::string& scheme,
                                      std::size_t classes) {
  const Codec* c = find_codec(scheme);
  if (c == nullptr)
    throw ParseError("model: unsupported scheme '" + scheme + "'");
  // Benign-only schemes are binary by construction.
  if (is_one_class_scheme(scheme) && classes != 2)
    throw ParseError("model: " + scheme + " must be binary");
  return c->load(reader, classes);
}

/// The actual parser; throws ParseError on malformed input.
std::unique_ptr<Classifier> load_model_impl(std::istream& in) {
  Reader reader(in);
  {
    const auto header = reader.line();
    if (header.size() != 2 || header[0] != "hmd-model" || header[1] != "v1")
      throw ParseError("model: bad header (expected 'hmd-model v1')");
  }
  const auto scheme_tokens = reader.expect("scheme");
  if (scheme_tokens.size() != 1) throw ParseError("model: bad scheme line");
  const std::size_t classes = reader.expect_size("classes");
  if (classes < 2) throw ParseError("model: class count must be >= 2");

  std::unique_ptr<Classifier> model =
      load_body(reader, scheme_tokens[0], classes);
  reader.expect("end");
  return model;
}

}  // namespace

void save_model(std::ostream& out, const Classifier& clf) {
  HMD_REQUIRE(clf.num_classes() >= 2, "save_model: classifier not trained");
  out << "hmd-model v1\n";
  out << "scheme " << clf.name() << '\n';
  out << "classes " << clf.num_classes() << '\n';

  save_body(out, clf);
  out << "end\n";
}

Result<std::unique_ptr<Classifier>> try_load_model(std::istream& in) {
  return capture_result([&in] { return load_model_impl(in); })
      .with_context("loading model");
}

std::unique_ptr<Classifier> load_model(std::istream& in) {
  // Thin throwing wrapper: value() raises the ErrorInfo as a ParseError.
  return try_load_model(in).value();
}

}  // namespace hmd::ml
