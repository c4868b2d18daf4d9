// Health-plane unit tests: the stage/progress API, the span
// self-profile, the Prometheus writer, the heartbeat sampler's file
// format, and the two contracts the plane must never break — detection
// results bit-identical with the monitor on or off, and a crash dump
// that parses and names the active spans.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "behavior/normalized_day.h"
#include "common/health.h"
#include "common/json.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/critic.h"
#include "core/ensemble.h"
#include "features/measurement_cube.h"

using namespace acobe;

namespace {

std::string TempPath(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(static_cast<long>(::getpid()));
}

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every test starts and ends with a clean health plane and disabled
/// telemetry, like TelemetryTest.
class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    health::StopHealth();
    health::ResetStages();
    health::ResetSpanProfile();
    telemetry::ResetTelemetry();
    telemetry::EnableMetrics(false);
    telemetry::EnableTracing(false);
  }
  void TearDown() override {
    health::StopHealth();
    health::ResetStages();
    health::ResetSpanProfile();
    telemetry::EnableMetrics(false);
    telemetry::EnableTracing(false);
    telemetry::ResetTelemetry();
  }
};

// --- Stage / progress -------------------------------------------------

TEST_F(HealthTest, StageAdvanceBeforeAnyStageIsANoOp) {
  health::StageAdvance(5);  // must not crash, must not invent a stage
  const health::StageSnapshot snap = health::CurrentStage();
  EXPECT_STREQ(snap.name, "idle");
  EXPECT_EQ(snap.done, 0u);
  EXPECT_TRUE(health::StageTimes().empty());
}

TEST_F(HealthTest, StageProgressAndEta) {
  health::SetStage("ingest", 10);
  health::StageAdvance(4);
  health::SetStageDetail("logon.csv");
  const health::StageSnapshot snap = health::CurrentStage();
  EXPECT_STREQ(snap.name, "ingest");
  EXPECT_EQ(snap.detail, "logon.csv");
  EXPECT_EQ(snap.done, 4u);
  EXPECT_EQ(snap.total, 10u);
  EXPECT_GE(snap.elapsed_s, 0.0);
  // 4/10 done: an ETA exists and extrapolates the remaining 6 units.
  EXPECT_GE(snap.eta_s, 0.0);

  health::StageAdvance(6);
  EXPECT_DOUBLE_EQ(health::CurrentStage().eta_s, 0.0);  // complete
}

TEST_F(HealthTest, IndeterminateStageHasNoEta) {
  health::SetStage("spool");  // no total
  health::StageAdvance(3);
  const health::StageSnapshot snap = health::CurrentStage();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_DOUBLE_EQ(snap.eta_s, -1.0);
}

TEST_F(HealthTest, ReenteringAStageResumesItsProgressAndGrowsTotal) {
  // A loop alternating two stages re-enters each; every re-entry must
  // accumulate, not reset.
  health::SetStage("replay", 2);
  health::StageAdvance();
  health::SetStage("detect", 3);
  health::StageAdvance(3);
  health::SetStage("replay");  // back: progress 1/2 kept
  health::StageAdvance();
  const health::StageSnapshot snap = health::CurrentStage();
  EXPECT_STREQ(snap.name, "replay");
  EXPECT_EQ(snap.done, 2u);
  EXPECT_EQ(snap.total, 2u);

  health::SetStage("detect", 3);  // re-entry adds to the unit target
  const health::StageSnapshot detect = health::CurrentStage();
  EXPECT_EQ(detect.done, 3u);
  EXPECT_EQ(detect.total, 6u);

  // StageTimes keeps first-use order and every stage's cumulative wall.
  const std::vector<health::StageTime> times = health::StageTimes();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_STREQ(times[0].name, "replay");
  EXPECT_STREQ(times[1].name, "detect");
  for (const health::StageTime& t : times) EXPECT_GE(t.seconds, 0.0);
}

TEST_F(HealthTest, StageTimesJsonParses) {
  health::SetStage("ingest", 5);
  health::StageAdvance(5);
  health::SetStage("detect", 2);
  const json::Value doc = json::Value::Parse(health::StageTimesJson());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc[0].GetString("stage", ""), "ingest");
  EXPECT_DOUBLE_EQ(doc[0].GetNumber("done", -1), 5.0);
  EXPECT_DOUBLE_EQ(doc[0].GetNumber("total", -1), 5.0);
  EXPECT_EQ(doc[1].GetString("stage", ""), "detect");
  EXPECT_GE(doc[0].GetNumber("seconds", -1), 0.0);
}

// --- Span self-profile ------------------------------------------------

TEST_F(HealthTest, SpanProfileRecordsParentChildEdges) {
  telemetry::EnableMetrics(true);
  for (int i = 0; i < 3; ++i) {
    telemetry::TraceSpan outer("test.profile_outer");
    {
      telemetry::TraceSpan inner("test.profile_inner");
    }
    {
      telemetry::TraceSpan inner("test.profile_inner");
    }
  }
  const std::vector<health::SpanEdge> profile = health::SpanProfile();
  const health::SpanEdge* outer = nullptr;
  const health::SpanEdge* inner = nullptr;
  for (const health::SpanEdge& e : profile) {
    if (e.name == "test.profile_outer") outer = &e;
    if (e.name == "test.profile_inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, "");  // root span
  EXPECT_EQ(outer->count, 3u);
  EXPECT_EQ(inner->parent, "test.profile_outer");
  EXPECT_EQ(inner->count, 6u);
  // The outer span's self time excludes its children; the leaf keeps
  // everything.
  EXPECT_LE(outer->self_ms, outer->total_ms);
  EXPECT_DOUBLE_EQ(inner->self_ms, inner->total_ms);
  // Profile is sorted by total wall descending.
  for (std::size_t i = 1; i < profile.size(); ++i) {
    EXPECT_GE(profile[i - 1].total_ms, profile[i].total_ms);
  }

  health::ResetSpanProfile();
  EXPECT_TRUE(health::SpanProfile().empty());
}

TEST_F(HealthTest, SpanProfileSurvivesParallelWorkers) {
  telemetry::EnableMetrics(true);
  // Fresh threads claim and release span-stack slots as they start and
  // exit; edges from every thread merge into one profile.
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([] {
        for (int i = 0; i < 4; ++i) {
          telemetry::TraceSpan span("test.profile_worker");
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const std::vector<health::SpanEdge> profile = health::SpanProfile();
  std::uint64_t count = 0;
  for (const health::SpanEdge& e : profile) {
    if (e.name == "test.profile_worker") count += e.count;
  }
  EXPECT_EQ(count, 48u);
}

// --- Prometheus text writer -------------------------------------------

TEST_F(HealthTest, PrometheusExpositionShape) {
  telemetry::EnableMetrics(true);
  ACOBE_COUNT("test.prom-counter", 7);
  ACOBE_GAUGE_SET("test.prom_gauge", 2.5);
  ACOBE_HISTOGRAM("test.prom_hist", 1.0);
  ACOBE_HISTOGRAM("test.prom_hist", 3.0);
  std::ostringstream out;
  telemetry::WriteMetricsProm(out);
  const std::string text = out.str();
  // Names are prefixed and sanitized ('.', '-' -> '_').
  EXPECT_NE(text.find("# TYPE acobe_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("acobe_test_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE acobe_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("acobe_test_prom_gauge 2.5"), std::string::npos);
  // Histograms land as summaries with quantile labels + sum/count.
  EXPECT_NE(text.find("# TYPE acobe_test_prom_hist summary"),
            std::string::npos);
  EXPECT_NE(text.find("acobe_test_prom_hist{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("acobe_test_prom_hist_sum 4"), std::string::npos);
  EXPECT_NE(text.find("acobe_test_prom_hist_count 2"), std::string::npos);
  // The original dotted name survives in the HELP line.
  EXPECT_NE(text.find("test.prom_gauge"), std::string::npos);
}

TEST_F(HealthTest, PrometheusEscapesHelpAndDedupesCollidingNames) {
  telemetry::EnableMetrics(true);
  // Both sanitize to acobe_test_collide_x: the second must not emit a
  // duplicate family (scrapers reject those) but a suffixed one.
  ACOBE_COUNT("test.collide-x", 1);
  ACOBE_COUNT("test.collide.x", 2);
  // A backslash in the source name must be escaped in the HELP text
  // (it is only legal there as \\ or \n).
  ACOBE_GAUGE_SET("test.weird\\name", 1.0);
  std::ostringstream out;
  telemetry::WriteMetricsProm(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE acobe_test_collide_x counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE acobe_test_collide_x_2 counter"),
            std::string::npos);
  EXPECT_NE(text.find("acobe_test_collide_x_2 "), std::string::npos);
  EXPECT_NE(text.find("\\\\"), std::string::npos)
      << "backslash in HELP not escaped";
  // No bare duplicate sample of the base name.
  const std::size_t first = text.find("\nacobe_test_collide_x 1");
  EXPECT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("\nacobe_test_collide_x 2"), std::string::npos);
}

TEST_F(HealthTest, SnapshotCountersAndGaugesIsSortedAndCurrent) {
  telemetry::EnableMetrics(true);
  ACOBE_COUNT("test.snap_b", 2);
  ACOBE_COUNT("test.snap_a", 1);
  ACOBE_GAUGE_SET("test.snap_g", 9.0);
  const telemetry::MetricsSnapshot snap =
      telemetry::SnapshotCountersAndGauges();
  std::uint64_t a = 0, b = 0;
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.snap_a") a = value;
    if (name == "test.snap_b") b = value;
  }
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  bool gauge_seen = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.snap_g") {
      gauge_seen = true;
      EXPECT_DOUBLE_EQ(value, 9.0);
    }
  }
  EXPECT_TRUE(gauge_seen);
}

// --- Heartbeat sampler ------------------------------------------------

TEST_F(HealthTest, HeartbeatFileIsValidSequencedJsonl) {
  telemetry::EnableMetrics(true);
  const std::string path = TempPath("acobe-health-test");
  health::HealthOptions opts;
  opts.path = path;
  opts.interval_ms = 20;
  opts.tool = "health-test";
  opts.crash_recorder = false;  // don't hook gtest's signal handling
  ASSERT_TRUE(health::StartHealth(opts));
  EXPECT_TRUE(health::HealthRunning());
  // A second monitor must be refused.
  EXPECT_FALSE(health::StartHealth(opts));

  health::SetStage("work", 4);
  for (int i = 0; i < 4; ++i) {
    ACOBE_COUNT("test.heartbeat_counter", 10);
    health::StageAdvance();
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  health::SetStage("done");
  health::StopHealth();
  EXPECT_FALSE(health::HealthRunning());
  health::StopHealth();  // idempotent

  const std::string text = ReadFileText(path);
  std::remove(path.c_str());
  const std::vector<json::Value> beats = json::ParseLines(text);
  ASSERT_GE(beats.size(), 3u);  // startup + >=1 periodic + final
  for (std::size_t i = 0; i < beats.size(); ++i) {
    const json::Value& b = beats[i];
    EXPECT_EQ(b.GetString("schema", ""), "acobe.health.v1");
    EXPECT_EQ(b.GetString("tool", ""), "health-test");
    EXPECT_DOUBLE_EQ(b.GetNumber("seq", 0),
                     static_cast<double>(i + 1));  // 1-based, no gaps
    if (i > 0) {
      EXPECT_GE(b.GetNumber("uptime_ms", 0),
                beats[i - 1].GetNumber("uptime_ms", 1e18));
    }
    EXPECT_GT(b.GetNumber("rss_bytes", 0), 0.0);
    EXPECT_GE(b.GetNumber("peak_rss_bytes", 0), b.GetNumber("rss_bytes", 0));
    EXPECT_EQ(b.GetBool("final", true), i + 1 == beats.size());
  }
  const json::Value& last = beats.back();
  ASSERT_NE(last.Get("stage"), nullptr);
  EXPECT_EQ(last.Get("stage")->GetString("name", ""), "done");
  // The worked stage appears in the final per-stage table, complete.
  bool worked = false;
  const json::Value* stages = last.Get("stages");
  ASSERT_NE(stages, nullptr);
  for (std::size_t i = 0; i < stages->size(); ++i) {
    if ((*stages)[i].GetString("stage", "") == "work") {
      worked = true;
      EXPECT_DOUBLE_EQ((*stages)[i].GetNumber("done", 0), 4.0);
      EXPECT_DOUBLE_EQ((*stages)[i].GetNumber("total", 0), 4.0);
    }
  }
  EXPECT_TRUE(worked);
  // Counters carry totals and per-second rates.
  const json::Value* counters = last.Get("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* counted = counters->Get("test.heartbeat_counter");
  ASSERT_NE(counted, nullptr);
  EXPECT_DOUBLE_EQ(counted->GetNumber("total", 0), 40.0);
  EXPECT_GE(counted->GetNumber("rate", -1), 0.0);
}

// --- The observational contract ---------------------------------------

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

ScoreGrid TrainAndScore(const SampleBuilder& builder, int users) {
  EnsembleConfig cfg;
  cfg.encoder_dims = {16, 8};
  cfg.optimizer = OptimizerKind::kAdam;
  cfg.learning_rate = 1e-3f;
  cfg.train.epochs = 3;
  cfg.train.batch_size = 16;
  cfg.threads = 4;
  AspectEnsemble ensemble({{"a0", {0, 1, 2}}, {"a1", {3, 4, 5}}}, cfg);
  ensemble.Train(builder, users, 0, 30);
  return ensemble.Score(builder, users, 30, 50);
}

TEST_F(HealthTest, ResultsBitIdenticalWithHealthMonitorRunning) {
  telemetry::EnableMetrics(true);
  const int users = 8;
  const MeasurementCube cube = SyntheticCube(users, 50, 6, 2);
  NormalizedDayBuilder builder(&cube, 0, 30);

  const ScoreGrid off = TrainAndScore(builder, users);

  const std::string path = TempPath("acobe-health-identity");
  health::HealthOptions opts;
  opts.path = path;
  opts.interval_ms = 10;  // hammer the sampler while training runs
  opts.tool = "health-test";
  opts.crash_recorder = false;
  health::SetStage("detect", 3);
  ASSERT_TRUE(health::StartHealth(opts));
  const ScoreGrid on = TrainAndScore(builder, users);
  health::StopHealth();
  std::remove(path.c_str());

  ASSERT_EQ(off.aspects(), on.aspects());
  ASSERT_EQ(off.users(), on.users());
  for (int s = 0; s < off.aspects(); ++s) {
    for (int u = 0; u < off.users(); ++u) {
      for (int d = off.day_begin(); d < off.day_end(); ++d) {
        ASSERT_EQ(off.At(s, u, d), on.At(s, u, d))
            << "aspect " << s << " user " << u << " day " << d;
      }
    }
  }
  const auto list_off = RankUsers(off, 2);
  const auto list_on = RankUsers(on, 2);
  ASSERT_EQ(list_off.size(), list_on.size());
  for (std::size_t i = 0; i < list_off.size(); ++i) {
    EXPECT_EQ(list_off[i].user_idx, list_on[i].user_idx);
    EXPECT_EQ(list_off[i].priority, list_on[i].priority);
  }
}

// --- Crash flight recorder --------------------------------------------

TEST_F(HealthTest, CrashDumpNamesTheActiveSpanStack) {
  const std::string path = TempPath("acobe-health-crash") + ".crash.json";
  std::remove(path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: a thread mid-pipeline with two open spans, then a segfault.
    // Only signal-safe-ish calls from here on.
    health::SpanStackPush("test.crash_outer");
    health::SpanStackPush("test.crash_inner");
    health::InstallCrashRecorder(path);
    ::raise(SIGSEGV);
    ::_exit(97);  // unreachable: the re-raised signal kills the child
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string text = ReadFileText(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty()) << "no crash dump written";
  const json::Value dump = json::Value::Parse(text);
  EXPECT_EQ(dump.GetString("schema", ""), "acobe.crash.v1");
  EXPECT_DOUBLE_EQ(dump.GetNumber("signal", 0),
                   static_cast<double>(SIGSEGV));
  EXPECT_EQ(dump.GetString("signame", ""), "SIGSEGV");
  const json::Value* threads = dump.Get("threads");
  ASSERT_NE(threads, nullptr);
  bool found = false;
  for (std::size_t t = 0; t < threads->size(); ++t) {
    const json::Value* spans = (*threads)[t].Get("spans");
    if (spans == nullptr || spans->size() < 2) continue;
    std::vector<std::string> names;
    for (std::size_t s = 0; s < spans->size(); ++s) {
      names.push_back((*spans)[s].AsString());
    }
    if (names[names.size() - 2] == "test.crash_outer" &&
        names.back() == "test.crash_inner") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no thread carried the open span stack";
}

}  // namespace
