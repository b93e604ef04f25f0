// Self-tests of the benchmark's own pieces: quantiles from raw samples,
// open-loop tick accounting, the metric naming rules and the report.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  // Unsorted on purpose; type-7 positions h = q * (n - 1).
  const std::vector<double> v = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 40);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 25);    // h = 1.5
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 17.5); // h = 0.75
}

TEST(Quantile, MatchesPythonStatisticsInclusive) {
  // statistics.quantiles(range(1, 101), n=100, method="inclusive")[98]
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99.01);
}

TEST(Quantile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
}

TEST(SupportedPercentile, LeavesTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(supported_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(supported_percentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(supported_percentile(999), 95.0);
  EXPECT_DOUBLE_EQ(supported_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(supported_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(supported_percentile(19), 0.0);
}

TEST(Summarize, ReportsMedianTailAndCount) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.median, 499.5);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, quantile(v, 0.99));
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(TickAccount, LatencyRunsFromTheScheduledTime) {
  TickAccount acc(10.0);
  acc.record(0, 0.2, 1.2);
  acc.record(1, 10.1, 11.0);
  EXPECT_DOUBLE_EQ(acc.latency_ms()[0], 1.2);
  EXPECT_DOUBLE_EQ(acc.latency_ms()[1], 1.0);
  EXPECT_NEAR(acc.lateness_ms()[1], 0.1, 1e-12);
  EXPECT_EQ(acc.deadline_misses(), 0u);
}

TEST(TickAccount, StalledTickChargesLaterTicks) {
  // Tick 0 stalls for 35 ms. Ticks 1..3 were due at 10, 20, 30 ms but the
  // generator could only start them after the stall; each takes 1 ms.
  TickAccount acc(10.0);
  acc.record(0, 0.0, 35.0);
  acc.record(1, 35.0, 36.0);
  acc.record(2, 36.0, 37.0);
  acc.record(3, 37.0, 38.0);
  acc.record(4, 40.0, 41.0);  // back on schedule
  EXPECT_DOUBLE_EQ(acc.latency_ms()[1], 26.0);
  EXPECT_DOUBLE_EQ(acc.latency_ms()[2], 17.0);
  EXPECT_DOUBLE_EQ(acc.latency_ms()[3], 8.0);
  EXPECT_DOUBLE_EQ(acc.latency_ms()[4], 1.0);
  EXPECT_DOUBLE_EQ(acc.lateness_ms()[1], 25.0);
  EXPECT_DOUBLE_EQ(acc.lateness_ms()[4], 0.0);
  // Tick 0 (35 ms), tick 1 (26 ms) and tick 2 (17 ms) missed the budget.
  EXPECT_EQ(acc.deadline_misses(), 3u);
}

TEST(TickAccount, FailedTickIsAMiss) {
  TickAccount acc(10.0);
  acc.record(0, 0.0, 0.5, /*failed=*/true);
  EXPECT_EQ(acc.failures(), 1u);
  EXPECT_EQ(acc.deadline_misses(), 1u);
}

TEST(TickAccount, RejectsOutOfOrderTicks) {
  TickAccount acc(10.0);
  EXPECT_THROW(acc.record(1, 10.0, 11.0), std::invalid_argument);
  EXPECT_THROW(TickAccount(0.0), std::invalid_argument);
}

TEST(MetricNames, FollowTheBenchmarkRules) {
  for (const char* ok : {"setup_s", "serve.drain_wait_ms", "ml.train_s.MLP", "0x", "a-b"})
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space", "per/s", "pct%", "é"})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricUnits, FollowTheBenchmarkRules) {
  for (const char* ok : {"ms", "s", "1/s", "count", "%", "instr/cycle", "ms/s"})
    EXPECT_TRUE(valid_metric_unit(ok)) << ok;
  for (const char* bad : {"", "m s", "µs", "seventeen-chars-x"})
    EXPECT_FALSE(valid_metric_unit(bad)) << bad;
}

TEST(Report, RejectsBadAndDuplicateNames) {
  Report r;
  r.add(Kind::kEndToEnd, "setup_s", "s", 1.0);
  EXPECT_THROW(r.add(Kind::kLayer, "setup_s", "s", 2.0), std::invalid_argument);
  EXPECT_THROW(r.add(Kind::kLayer, "bad name", "s", 2.0), std::invalid_argument);
  EXPECT_THROW(r.add(Kind::kLayer, "ok", "bad unit", 2.0), std::invalid_argument);
}

TEST(Report, ResultCarriesOnlyTheRequestedKind) {
  Report r;
  r.add(Kind::kEndToEnd, "setup_s", "s", 0.5);
  r.add(Kind::kLayer, "ml.train_ms", "ms", 12.25);
  r.add(Kind::kDetail, "tick_p99_ms", "ms", 3.0);
  r.count_attempt(10);
  r.gate("replay", true, "");
  EXPECT_EQ(r.result_json(Kind::kEndToEnd),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_EQ(r.result_json(Kind::kLayer),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"ml.train_ms\": {\"value\": 12.25, \"unit\": \"ms\"}}}");
}

TEST(Report, AnyFailedGateMakesTheRunIncorrect) {
  Report r;
  EXPECT_FALSE(r.correct());  // no gate checked yet
  r.gate("a", true, "");
  EXPECT_TRUE(r.correct());
  r.gate("b", false, "1 stream differs");
  EXPECT_FALSE(r.correct());
}

TEST(Report, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
  EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

}  // namespace
}  // namespace perfbench
