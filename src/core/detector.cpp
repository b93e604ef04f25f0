#include "core/detector.hpp"

#include <algorithm>

#include "hw/compile.hpp"
#include "ml/instrumented.hpp"
#include "ml/registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hmd::core {

TrainedModel train_and_evaluate(const std::string& scheme,
                                const ml::Dataset& train,
                                const ml::Dataset& test) {
  std::unique_ptr<ml::Classifier> model =
      ml::instrument(ml::make_classifier(scheme));
  TraceSpan timer("");
  model->train(train);
  const double train_seconds = timer.elapsed_seconds();
  ml::EvaluationReport evaluation = ml::evaluate(*model, test);
  evaluation.train_seconds = train_seconds;
  return {std::move(model), std::move(evaluation)};
}

BinaryStudy::BinaryStudy(ml::Dataset train, ml::Dataset test)
    : train_(std::move(train)), test_(std::move(test)) {
  HMD_REQUIRE(train_.num_classes() == 2 && test_.num_classes() == 2,
              "BinaryStudy expects binary datasets");
  HMD_REQUIRE(train_.num_features() == test_.num_features(),
              "BinaryStudy: train/test schema mismatch");
}

std::vector<BinaryStudyRow> BinaryStudy::run(const std::vector<std::string>& schemes,
                                             const FeatureSet* features,
                                             ThreadPool* pool) const {
  const bool project = features != nullptr && !features->indices.empty();
  const ml::Dataset train =
      project ? train_.project(features->indices) : train_;
  const ml::Dataset test = project ? test_.project(features->indices) : test_;

  return parallel_map(pool, schemes, [&](const std::string& scheme) {
    HMD_TRACE_SPAN("study/" + scheme + "/" +
                   std::to_string(train.num_features()) + "f");
    TrainedModel tm = train_and_evaluate(scheme, train, test);
    BinaryStudyRow row;
    row.scheme = scheme;
    row.num_features = train.num_features();
    row.report = std::move(tm.evaluation);
    row.synthesis =
        hw::compile(*tm.model, {.num_features = train.num_features()})
            .report();
    return row;
  });
}

void PcaAssistedOvr::train(const ml::Dataset& train) {
  HMD_REQUIRE(train.num_classes() == workload::kNumAppClasses,
              "PcaAssistedOvr expects the 6-class dataset");
  const std::size_t k = train.num_classes();
  class_names_ = train.class_attribute().values();
  detectors_.clear();
  features_.clear();
  detectors_.reserve(k);
  features_.reserve(k);

  const FeatureReducer reducer(train, config_.variance_cutoff);
  for (std::size_t c = 0; c < k; ++c) {
    FeatureSet fs =
        config_.fixed_features.has_value()
            ? *config_.fixed_features
            : reducer.custom_features(static_cast<workload::AppClass>(c),
                                      config_.features_per_class);
    // One-vs-rest binary problem on the class's feature subset, with the
    // negative side subsampled so the detector's probabilities stay
    // competitive for rare classes.
    ml::Dataset binary =
        train.relabel_binary({c}, "rest", class_names_[c]);
    ml::Dataset projected = binary.project(fs.indices);
    if (config_.max_negative_ratio > 0.0) {
      const auto counts = projected.class_counts();
      const auto max_neg = static_cast<std::size_t>(
          config_.max_negative_ratio * static_cast<double>(counts[1]));
      if (counts[0] > max_neg && counts[1] > 0) {
        Rng rng(config_.subsample_seed ^ (c * 0x9e3779b97f4a7c15ull));
        ml::Dataset balanced(
            std::vector<ml::Attribute>(projected.attributes()),
            projected.relation());
        const double keep = static_cast<double>(max_neg) /
                            static_cast<double>(counts[0]);
        for (std::size_t i = 0; i < projected.num_instances(); ++i) {
          if (projected.class_of(i) == 1 || rng.bernoulli(keep))
            balanced.add_row(projected.row(i));
        }
        projected = std::move(balanced);
      }
    }
    auto detector = ml::make_classifier(config_.scheme);
    detector->train(projected);
    detectors_.push_back(std::move(detector));
    features_.push_back(std::move(fs));
  }
}

std::size_t PcaAssistedOvr::predict(std::span<const double> features) const {
  HMD_REQUIRE(!detectors_.empty(), "PcaAssistedOvr: predict before train");
  std::size_t best = 0;
  double best_score = -1.0;
  std::vector<double> projected;
  for (std::size_t c = 0; c < detectors_.size(); ++c) {
    projected.clear();
    for (std::size_t idx : features_[c].indices) {
      HMD_REQUIRE(idx < features.size(),
                  "PcaAssistedOvr: feature vector too short");
      projected.push_back(features[idx]);
    }
    // Probability of the positive (class) label, index 1.
    const std::vector<double> dist = detectors_[c]->distribution(projected);
    HMD_ASSERT(dist.size() == 2);
    if (dist[1] > best_score) {
      best_score = dist[1];
      best = c;
    }
  }
  return best;
}

ml::EvaluationReport PcaAssistedOvr::evaluate(const ml::Dataset& test) const {
  HMD_REQUIRE(test.num_classes() == class_names_.size(),
              "PcaAssistedOvr: test class mismatch");
  ml::EvaluationReport report;
  report.scheme = "PcaOvr/" + config_.scheme;
  report.result = ml::EvaluationResult(test.num_classes(), class_names_);
  TraceSpan timer("");
  for (std::size_t i = 0; i < test.num_instances(); ++i)
    report.record(test.class_of(i), predict(test.features_of(i)));
  report.predict_seconds = timer.elapsed_seconds();
  return report;
}

}  // namespace hmd::core
