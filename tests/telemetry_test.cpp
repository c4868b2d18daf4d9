// Telemetry registry unit tests plus the key regression the
// observability layer must never break: enabling metrics and tracing
// does not perturb detection results — the ScoreGrid and investigation
// list are bit-identical with telemetry on or off, serial or parallel.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "behavior/normalized_day.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/critic.h"
#include "core/ensemble.h"
#include "features/measurement_cube.h"

using namespace acobe;

namespace {

/// Every test leaves the process-wide flags off and the registry clean.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::ResetTelemetry();
    telemetry::EnableMetrics(false);
    telemetry::EnableTracing(false);
  }
  void TearDown() override {
    telemetry::EnableMetrics(false);
    telemetry::EnableTracing(false);
    telemetry::ResetTelemetry();
  }
};

TEST_F(TelemetryTest, CounterGaugeBasics) {
  telemetry::Counter& c = telemetry::GetCounter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same object.
  EXPECT_EQ(&c, &telemetry::GetCounter("test.counter"));

  telemetry::Gauge& g = telemetry::GetGauge("test.gauge");
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.SetMax(2.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.SetMax(7.0);  // higher: wins
  EXPECT_DOUBLE_EQ(g.value(), 7.0);

  telemetry::ResetTelemetry();
  // References stay valid after reset; values are zeroed in place.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(TelemetryTest, HistogramNearestRankPercentiles) {
  telemetry::Histogram& h = telemetry::GetHistogram("test.hist");
  for (int v = 1; v <= 100; ++v) h.Record(v);
  const auto stats = h.Snapshot();
  EXPECT_EQ(stats.count, 100u);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
  EXPECT_DOUBLE_EQ(stats.mean, 50.5);
  // Nearest-rank: index ceil(p/100 * 100) over the sorted samples.
  EXPECT_DOUBLE_EQ(stats.p50, 50.0);
  EXPECT_DOUBLE_EQ(stats.p95, 95.0);
  EXPECT_DOUBLE_EQ(stats.p99, 99.0);

  telemetry::Histogram& single = telemetry::GetHistogram("test.hist1");
  single.Record(7.0);
  const auto one = single.Snapshot();
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p99, 7.0);
}

TEST_F(TelemetryTest, HistogramRetainsAtMostTheCapWithExactTotals) {
  // Ten times the cap from four threads: the totals stay exact (integer
  // samples, so every partial sum is exact too) while the retained
  // samples behind the quantiles stop at the cap.
  constexpr int kThreads = 4;
  const int per_thread =
      static_cast<int>(telemetry::Histogram::kMaxSamples) * 10 / kThreads;
  telemetry::Histogram& h = telemetry::GetHistogram("test.hist_capped");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t, per_thread] {
      for (int i = 0; i < per_thread; ++i) h.Record(t * per_thread + i + 1);
    });
  }
  for (std::thread& t : threads) t.join();
  const double n = static_cast<double>(kThreads) * per_thread;
  const auto stats = h.Snapshot();
  EXPECT_EQ(stats.count, static_cast<std::uint64_t>(n));
  EXPECT_DOUBLE_EQ(stats.sum, n * (n + 1) / 2);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, n);
  EXPECT_DOUBLE_EQ(stats.mean, (n + 1) / 2);
  EXPECT_LE(stats.retained, telemetry::Histogram::kMaxSamples);
  EXPECT_GT(stats.retained, 0u);
  // The reservoir keeps the quantiles ordered and inside the range.
  EXPECT_LE(stats.min, stats.p50);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
  EXPECT_LE(stats.p99, stats.max);

  // Reset empties the reservoir budget too: below the cap every sample
  // is kept again and the quantiles are exact.
  h.Reset();
  for (int v = 1; v <= 100; ++v) h.Record(v);
  const auto again = h.Snapshot();
  EXPECT_EQ(again.count, 100u);
  EXPECT_EQ(again.retained, 100u);
  EXPECT_DOUBLE_EQ(again.p50, 50.0);
  EXPECT_DOUBLE_EQ(again.p95, 95.0);
  EXPECT_DOUBLE_EQ(again.p99, 99.0);
}

TEST_F(TelemetryTest, MacrosAreInertWhenDisabled) {
  ASSERT_FALSE(telemetry::MetricsEnabled());
  ACOBE_COUNT("test.disabled_counter", 5);
  ACOBE_HISTOGRAM("test.disabled_hist", 1.0);
  EXPECT_EQ(telemetry::GetCounter("test.disabled_counter").value(), 0u);
  EXPECT_EQ(telemetry::GetHistogram("test.disabled_hist").Snapshot().count,
            0u);
}

TEST_F(TelemetryTest, MacrosRecordWhenEnabled) {
  telemetry::EnableMetrics(true);
  ACOBE_COUNT("test.macro_counter", 2);
  ACOBE_COUNT("test.macro_counter", 3);
  ACOBE_GAUGE_MAX("test.macro_gauge", 9);
  ACOBE_HISTOGRAM("test.macro_hist", 1.25);
  EXPECT_EQ(telemetry::GetCounter("test.macro_counter").value(), 5u);
  EXPECT_DOUBLE_EQ(telemetry::GetGauge("test.macro_gauge").value(), 9.0);
  EXPECT_EQ(telemetry::GetHistogram("test.macro_hist").Snapshot().count, 1u);
}

TEST_F(TelemetryTest, ConcurrentRecordingFromParallelFor) {
  telemetry::EnableMetrics(true);
  ParallelFor(0, 1000, 4, [](int i) {
    ACOBE_COUNT("test.parallel_counter", 1);
    telemetry::GetHistogram("test.parallel_hist").Record(i);
  });
  EXPECT_EQ(telemetry::GetCounter("test.parallel_counter").value(), 1000u);
  const auto stats = telemetry::GetHistogram("test.parallel_hist").Snapshot();
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.max, 999.0);
}

TEST_F(TelemetryTest, MetricsJsonShape) {
  telemetry::EnableMetrics(true);
  ACOBE_COUNT("test.json_counter", 3);
  telemetry::GetSeries("test.json_series").Append(0.5);
  telemetry::GetSeries("test.json_series").Append(0.25);
  std::ostringstream out;
  telemetry::WriteMetricsJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"acobe.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_series\": [0.5, 0.25]"),
            std::string::npos);
  // Balanced braces as a cheap well-formedness proxy (a real parse is
  // exercised end-to-end by the CLI acceptance run).
  long depth = 0;
  for (char ch : json) depth += (ch == '{') - (ch == '}');
  EXPECT_EQ(depth, 0);
}

TEST_F(TelemetryTest, TraceSpansCarryWorkerThreadAttribution) {
  telemetry::EnableTracing(true);
  {
    telemetry::TraceSpan outer("test.outer");
    ParallelFor(0, 8, 4, [](int) {
      telemetry::TraceSpan inner("test.inner");
    });
  }
  std::ostringstream out;
  telemetry::WriteTraceJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // The ParallelFor iterations run on pool workers, so inner spans must
  // land on a tid other than the caller's.
  std::vector<int> tids;
  for (std::size_t pos = json.find("\"tid\": "); pos != std::string::npos;
       pos = json.find("\"tid\": ", pos + 1)) {
    const int tid = std::atoi(json.c_str() + pos + 7);
    if (std::find(tids.begin(), tids.end(), tid) == tids.end()) {
      tids.push_back(tid);
    }
  }
  EXPECT_GE(tids.size(), 2u);
}

// --- Determinism regression -----------------------------------------------

MeasurementCube SyntheticCube(int users, int days, int features, int frames) {
  MeasurementCube cube(Date(2010, 1, 2), days, features, frames);
  Rng rng(17);
  for (int u = 0; u < users; ++u) {
    cube.RegisterUser(u);
    for (int f = 0; f < features; ++f) {
      for (int d = 0; d < days; ++d) {
        for (int t = 0; t < frames; ++t) {
          cube.At(u, f, d, t) = static_cast<float>(rng.NextPoisson(3.0));
        }
      }
    }
  }
  return cube;
}

ScoreGrid TrainAndScore(const SampleBuilder& builder, int users,
                        int threads) {
  EnsembleConfig cfg;
  cfg.encoder_dims = {16, 8};
  cfg.optimizer = OptimizerKind::kAdam;
  cfg.learning_rate = 1e-3f;
  cfg.train.epochs = 3;
  cfg.train.batch_size = 16;
  cfg.threads = threads;
  AspectEnsemble ensemble({{"a0", {0, 1, 2}}, {"a1", {3, 4, 5}}}, cfg);
  ensemble.Train(builder, users, 0, 30);
  return ensemble.Score(builder, users, 30, 50);
}

void ExpectIdentical(const ScoreGrid& a, const ScoreGrid& b) {
  ASSERT_EQ(a.aspects(), b.aspects());
  ASSERT_EQ(a.users(), b.users());
  ASSERT_EQ(a.day_begin(), b.day_begin());
  ASSERT_EQ(a.day_end(), b.day_end());
  for (int s = 0; s < a.aspects(); ++s) {
    for (int u = 0; u < a.users(); ++u) {
      for (int d = a.day_begin(); d < a.day_end(); ++d) {
        ASSERT_EQ(a.At(s, u, d), b.At(s, u, d))
            << "aspect " << s << " user " << u << " day " << d;
      }
    }
  }
  const auto list_a = RankUsers(a, 2);
  const auto list_b = RankUsers(b, 2);
  ASSERT_EQ(list_a.size(), list_b.size());
  for (std::size_t i = 0; i < list_a.size(); ++i) {
    EXPECT_EQ(list_a[i].user_idx, list_b[i].user_idx);
    EXPECT_EQ(list_a[i].priority, list_b[i].priority);
  }
}

TEST_F(TelemetryTest, ResultsBitIdenticalWithTelemetryOnOrOff) {
  const int users = 8;
  const MeasurementCube cube = SyntheticCube(users, 50, 6, 2);
  NormalizedDayBuilder builder(&cube, 0, 30);

  for (int threads : {1, 4}) {
    telemetry::EnableMetrics(false);
    telemetry::EnableTracing(false);
    const ScoreGrid off = TrainAndScore(builder, users, threads);

    telemetry::EnableMetrics(true);
    telemetry::EnableTracing(true);
    const ScoreGrid on = TrainAndScore(builder, users, threads);

    ExpectIdentical(off, on);
  }
}

}  // namespace
