// Trained-model persistence.
//
// A deployed detector is trained once and shipped; this module saves and
// loads trained classifiers in a line-oriented text format:
//
//   hmd-model v1
//   scheme <name>
//   classes <k>
//   ...scheme-specific sections...
//   end
//
// Supported schemes: ZeroR, OneR, DecisionStump, J48, JRip, NaiveBayes,
// MLR (Logistic), SVM, MLP, IBk, AdaBoostM1, Bagging, Mahalanobis, and
// the one-class family (OneClassSvm, KdeAnomaly, MahalanobisThreshold —
// the drift retrain loop round-trips these through deployment bundles).
// Round-trip is exact: a loaded model produces bit-identical predictions
// (all parameters serialize via hex-encoded doubles).
#pragma once

#include <iosfwd>
#include <memory>

#include "ml/classifier.hpp"
#include "util/result.hpp"

namespace hmd::ml {

/// Serialize a trained classifier. Throws hmd::PreconditionError for
/// unsupported or untrained models.
void save_model(std::ostream& out, const Classifier& clf);

/// Reconstruct a classifier saved by save_model. Malformed input yields an
/// ErrorInfo (ErrCode::kParse) with a "loading model" context frame — the
/// primary load API; the resilience layer branches on it without unwinding.
/// Every stored class index is checked against the header's class count,
/// and the error names the offending field.
Result<std::unique_ptr<Classifier>> try_load_model(std::istream& in);

/// Thin throwing wrapper over try_load_model: raises hmd::ParseError on
/// malformed input. Kept so pre-Result call sites compile unchanged.
std::unique_ptr<Classifier> load_model(std::istream& in);

}  // namespace hmd::ml
