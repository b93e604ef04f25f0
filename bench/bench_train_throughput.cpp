// Training / prediction throughput for the hot classifiers (J48, MLR,
// IBk, MLP) on a synthetic 50k-row dataset shaped like the thesis data
// (16 features, 6 classes). Unlike the figure benches this one does not
// collect the HPC dataset — it exists to track the cost of the training
// inner loops across perf PRs, so it must be cheap, deterministic and
// dependency-free.
//
// Emits BENCH_throughput.json (rows/sec train + predict, serial and
// pooled) in the working directory and mirrors the numbers as [bench]
// lines for CI greps. Each scheme also reports an FNV-1a fingerprint of
// its trained parameters (the bytes save_model writes, whose doubles are
// exact hexfloats), so two runs under different HMD_KERNEL_ISA settings
// can be checked for bit-identical training.
//
// Scale knobs (environment):
//   HMD_TPUT_ROWS     dataset rows            (default 50000)
//   HMD_TPUT_PREDICT  rows scored per predict (default 2048)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "ml/dataset.hpp"
#include "ml/j48.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/mlp.hpp"
#include "ml/serialization.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using namespace hmd;

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0')
             ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10))
             : fallback;
}

constexpr std::size_t kFeatures = 16;
constexpr std::size_t kClasses = 6;

/// Gaussian blobs in the thesis dataset's shape; deterministic in `seed`.
ml::Dataset synthetic_dataset(std::size_t rows, std::uint64_t seed) {
  std::vector<ml::Attribute> attrs;
  for (std::size_t f = 0; f < kFeatures; ++f)
    attrs.emplace_back("f" + std::to_string(f));
  std::vector<std::string> names;
  for (std::size_t c = 0; c < kClasses; ++c)
    names.push_back("c" + std::to_string(c));
  attrs.emplace_back("class", names);
  ml::Dataset data(std::move(attrs), "throughput_blobs");
  Rng rng(seed);
  const std::size_t per_class = rows / kClasses;
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      ml::Instance row;
      for (std::size_t f = 0; f < kFeatures; ++f)
        row.values.push_back(
            rng.normal(2.0 * static_cast<double>((c + f) % kClasses), 1.5));
      row.values.push_back(static_cast<double>(c));
      data.add(std::move(row));
    }
  }
  return data;
}

/// FNV-1a over the serialized model: a fingerprint of every trained
/// parameter's bit pattern.
std::uint64_t param_fingerprint(const ml::Classifier& model) {
  std::ostringstream out;
  ml::save_model(out, model);
  std::uint64_t h = 1469598103934665603ull;
  for (const char ch : out.str()) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

struct SchemeResult {
  std::string scheme;
  std::uint64_t fingerprint = 0;  ///< param_fingerprint of the serial model
  double train_serial = 0.0;    ///< rows/sec
  double train_pooled = 0.0;    ///< rows/sec (aggregate across pool)
  double predict_serial = 0.0;  ///< rows/sec
  double predict_pooled = 0.0;  ///< rows/sec (aggregate across pool)
};

using Factory = std::unique_ptr<ml::Classifier> (*)();

/// Serial + pooled train and predict throughput for one scheme. Pooled
/// train runs `pool.size()` independent trainings concurrently (aggregate
/// throughput); pooled predict fans chunks of the scoring slice across the
/// pool. Predictions are summed into a checksum so the work cannot be
/// optimized away.
SchemeResult run_scheme(const std::string& scheme, Factory make,
                        const ml::Dataset& train, const ml::Dataset& test,
                        std::size_t predict_rows, ThreadPool& pool) {
  SchemeResult r;
  r.scheme = scheme;
  const auto n_train = static_cast<double>(train.num_instances());
  predict_rows = std::min(predict_rows, test.num_instances());

  std::unique_ptr<ml::Classifier> model;
  {
    TraceSpan t("tput/" + scheme + "/train_serial");
    model = make();
    model->train(train);
    r.train_serial = n_train / t.elapsed_seconds();
  }
  r.fingerprint = param_fingerprint(*model);
  {
    const std::size_t jobs = pool.size();
    std::vector<std::unique_ptr<ml::Classifier>> models(jobs);
    TraceSpan t("tput/" + scheme + "/train_pooled");
    parallel_for(&pool, jobs, [&](std::size_t j) {
      models[j] = make();
      models[j]->train(train);
    });
    r.train_pooled =
        n_train * static_cast<double>(jobs) / t.elapsed_seconds();
  }

  std::size_t checksum = 0;
  {
    TraceSpan t("tput/" + scheme + "/predict_serial");
    for (std::size_t i = 0; i < predict_rows; ++i)
      checksum += model->predict(test.features_of(i));
    r.predict_serial = static_cast<double>(predict_rows) / t.elapsed_seconds();
  }
  {
    constexpr std::size_t kChunk = 256;
    const std::size_t chunks = (predict_rows + kChunk - 1) / kChunk;
    std::vector<std::size_t> sums(chunks, 0);
    TraceSpan t("tput/" + scheme + "/predict_pooled");
    parallel_for(&pool, chunks, [&](std::size_t c) {
      const std::size_t hi = std::min(predict_rows, (c + 1) * kChunk);
      for (std::size_t i = c * kChunk; i < hi; ++i)
        sums[c] += model->predict(test.features_of(i));
    });
    r.predict_pooled = static_cast<double>(predict_rows) / t.elapsed_seconds();
    for (std::size_t s : sums) checksum += s;
  }

  std::fprintf(stderr,
               "[bench] throughput %-4s train %9.0f rows/s serial %9.0f "
               "pooled | predict %9.0f rows/s serial %9.0f pooled "
               "(checksum %zu) params fingerprint %016" PRIx64 "\n",
               scheme.c_str(), r.train_serial, r.train_pooled,
               r.predict_serial, r.predict_pooled, checksum, r.fingerprint);
  return r;
}

void write_json(const std::string& path, std::size_t rows,
                std::size_t train_rows, std::size_t predict_rows,
                std::size_t jobs, const std::vector<SchemeResult>& results) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"metadata\": " << bench::metadata_json("  ").substr(2) << ",\n"
      << "  \"rows\": " << rows << ",\n"
      << "  \"features\": " << kFeatures << ",\n"
      << "  \"classes\": " << kClasses << ",\n"
      << "  \"train_rows\": " << train_rows << ",\n"
      << "  \"predict_rows\": " << predict_rows << ",\n"
      << "  \"pool_jobs\": " << jobs << ",\n"
      << "  \"schemes\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SchemeResult& r = results[i];
    char fingerprint[17];
    std::snprintf(fingerprint, sizeof fingerprint, "%016" PRIx64,
                  r.fingerprint);
    out << "    \"" << r.scheme << "\": {\n"
        << "      \"params_fingerprint\": \"" << fingerprint << "\",\n"
        << "      \"train_rows_per_s\": {\"serial\": " << r.train_serial
        << ", \"pooled\": " << r.train_pooled << "},\n"
        << "      \"predict_rows_per_s\": {\"serial\": " << r.predict_serial
        << ", \"pooled\": " << r.predict_pooled << "}\n"
        << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

}  // namespace

int main() {
  bench::init_observability();
  const std::size_t rows = env_or("HMD_TPUT_ROWS", 50000);
  const std::size_t predict_rows = env_or("HMD_TPUT_PREDICT", 2048);

  const ml::Dataset data = synthetic_dataset(rows, 7);
  Rng split_rng(42);
  const auto [train, test] = data.stratified_split(0.7, split_rng);
  ThreadPool& pool = bench::bench_pool();
  std::fprintf(stderr,
               "[bench] throughput dataset: %zu rows (%zu train / %zu test), "
               "%zu features, %zu classes, %zu pool jobs\n",
               data.num_instances(), train.num_instances(),
               test.num_instances(), kFeatures, kClasses, pool.size());

  // Bench-sized iteration budgets for the gradient schemes: enough work to
  // measure the inner loops, small enough for a CI smoke run.
  const std::vector<std::pair<std::string, Factory>> schemes = {
      {"J48", +[]() -> std::unique_ptr<ml::Classifier> {
         return std::make_unique<ml::J48>();
       }},
      {"MLR", +[]() -> std::unique_ptr<ml::Classifier> {
         return std::make_unique<ml::Logistic>(
             ml::Logistic::Params{.iterations = 100});
       }},
      {"IBk", +[]() -> std::unique_ptr<ml::Classifier> {
         return std::make_unique<ml::Knn>(5);
       }},
      {"MLP", +[]() -> std::unique_ptr<ml::Classifier> {
         return std::make_unique<ml::Mlp>(ml::Mlp::Params{.epochs = 6});
       }},
  };

  std::vector<SchemeResult> results;
  for (const auto& [scheme, make] : schemes)
    results.push_back(
        run_scheme(scheme, make, train, test, predict_rows, pool));

  const std::string path = "BENCH_throughput.json";
  write_json(path, data.num_instances(), train.num_instances(),
             std::min(predict_rows, test.num_instances()), pool.size(),
             results);
  std::fprintf(stderr, "[bench] throughput results written to %s\n",
               path.c_str());
  return 0;
}
