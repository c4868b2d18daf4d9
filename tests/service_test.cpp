// The resident service's building blocks: seeded backoff, bounded
// admission queues (incl. producer/consumer threading), the CRC'd
// cycle journal with its truncate-to-committed append logs, and the
// incremental MonitorState drive matching the batch monitor.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "core/critic.h"
#include "core/monitor.h"
#include "core/score_grid.h"
#include "service/cycle_stats.h"
#include "service/journal.h"
#include "service/queue.h"
#include "service/retry.h"
#include "service/supervisor.h"

using namespace acobe;

namespace fs = std::filesystem;

namespace {

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("acobe_service_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
  static int counter_;
};
int TempDir::counter_ = 0;

PackedEvent Ev(std::int64_t ts, std::uint32_t user) {
  PackedEvent p;
  p.ts = ts;
  p.user = user;
  return p;
}

// --- BackoffPolicy ---------------------------------------------------------

TEST(BackoffPolicyTest, DelaysAreDeterministicFromSeed) {
  BackoffConfig cfg;
  cfg.max_retries = 5;
  cfg.seed = 42;
  BackoffPolicy a(cfg), b(cfg);
  for (int i = 0; i < 5; ++i) {
    const auto da = a.OnFailure();
    const auto db = b.OnFailure();
    ASSERT_TRUE(da.has_value());
    ASSERT_TRUE(db.has_value());
    EXPECT_DOUBLE_EQ(*da, *db) << "attempt " << i;
  }
  // A different seed jitters differently (same exponential skeleton).
  BackoffConfig other = cfg;
  other.seed = 43;
  BackoffPolicy c(other), e(cfg);
  bool any_differ = false;
  for (int i = 0; i < 5; ++i) {
    if (*c.OnFailure() != *e.OnFailure()) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(BackoffPolicyTest, GrowsExponentiallyUpToCap) {
  BackoffConfig cfg;
  cfg.max_retries = 10;
  cfg.base_ms = 100.0;
  cfg.multiplier = 2.0;
  cfg.cap_ms = 400.0;
  cfg.jitter = 0.0;  // exact delays
  BackoffPolicy p(cfg);
  EXPECT_DOUBLE_EQ(*p.OnFailure(), 100.0);
  EXPECT_DOUBLE_EQ(*p.OnFailure(), 200.0);
  EXPECT_DOUBLE_EQ(*p.OnFailure(), 400.0);
  EXPECT_DOUBLE_EQ(*p.OnFailure(), 400.0);  // capped from here on
  EXPECT_DOUBLE_EQ(*p.OnFailure(), 400.0);
}

TEST(BackoffPolicyTest, JitterStaysWithinBand) {
  BackoffConfig cfg;
  cfg.max_retries = 1;
  cfg.base_ms = 1000.0;
  cfg.jitter = 0.25;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    cfg.seed = seed;
    BackoffPolicy p(cfg);
    const auto d = p.OnFailure();
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, 750.0);
    EXPECT_LE(*d, 1250.0);
  }
}

TEST(BackoffPolicyTest, SuccessResetsBothCounterAndJitterStream) {
  BackoffConfig cfg;
  cfg.max_retries = 3;
  cfg.seed = 7;
  BackoffPolicy p(cfg);
  std::vector<double> first;
  for (int i = 0; i < 3; ++i) first.push_back(*p.OnFailure());
  EXPECT_EQ(p.failures(), 3);
  p.OnSuccess();
  EXPECT_EQ(p.failures(), 0);
  // The post-success sequence replays the fresh-policy sequence
  // exactly: retry behavior is a pure function of failures since the
  // last success.
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(*p.OnFailure(), first[static_cast<std::size_t>(i)]);
  }
  EXPECT_FALSE(p.OnFailure().has_value());  // retries exhausted
}

TEST(BackoffPolicyTest, ZeroRetriesQuarantinesImmediately) {
  BackoffConfig cfg;
  cfg.max_retries = 0;
  BackoffPolicy p(cfg);
  EXPECT_FALSE(p.OnFailure().has_value());
  EXPECT_EQ(p.failures(), 1);
}

// --- BoundedEventQueue -----------------------------------------------------

TEST(BoundedEventQueueTest, ByteCapTightensRowCap) {
  // 10 rows but only 4 events' worth of bytes: bytes bind.
  BoundedEventQueue q(10, 4 * sizeof(PackedEvent), AdmissionPolicy::kShed);
  EXPECT_EQ(q.max_rows(), 4u);
  // Degenerate caps clamp to one event rather than zero.
  BoundedEventQueue tiny(10, 1, AdmissionPolicy::kShed);
  EXPECT_EQ(tiny.max_rows(), 1u);
}

TEST(BoundedEventQueueTest, ShedPolicyDropsAtCapAndCounts) {
  BoundedEventQueue q(2, 1 << 20, AdmissionPolicy::kShed);
  EXPECT_TRUE(q.Push(Ev(1, 0)));
  EXPECT_TRUE(q.Push(Ev(2, 0)));
  EXPECT_FALSE(q.Push(Ev(3, 0)));  // at cap: shed
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.rows(), 2u);
}

TEST(BoundedEventQueueTest, BatchBoundariesArriveInOrder) {
  BoundedEventQueue q(100, 1 << 20, AdmissionPolicy::kBlock);
  q.Push(Ev(1, 0));
  q.Push(Ev(2, 0));
  q.CloseBatch();
  q.Push(Ev(3, 0));
  q.CloseBatch();
  q.CloseBatch();  // empty batch
  q.CloseAll();

  std::vector<PackedEvent> out;
  EXPECT_EQ(q.Pop(out, 100), BoundedEventQueue::PopResult::kEvents);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].ts, 2);
  EXPECT_EQ(q.Pop(out, 100), BoundedEventQueue::PopResult::kBatchEnd);
  EXPECT_EQ(q.Pop(out, 100), BoundedEventQueue::PopResult::kEvents);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].ts, 3);
  EXPECT_EQ(q.Pop(out, 100), BoundedEventQueue::PopResult::kBatchEnd);
  EXPECT_EQ(q.Pop(out, 100), BoundedEventQueue::PopResult::kBatchEnd);
  EXPECT_EQ(q.Pop(out, 100), BoundedEventQueue::PopResult::kClosed);
}

TEST(BoundedEventQueueTest, NeverHandsEventsPastABoundary) {
  BoundedEventQueue q(100, 1 << 20, AdmissionPolicy::kBlock);
  q.Push(Ev(1, 0));
  q.CloseBatch();
  q.Push(Ev(2, 0));  // next batch, already admitted
  std::vector<PackedEvent> out;
  EXPECT_EQ(q.Pop(out, 100), BoundedEventQueue::PopResult::kEvents);
  EXPECT_EQ(out.size(), 1u);  // stopped at the boundary
  EXPECT_EQ(q.Pop(out, 100), BoundedEventQueue::PopResult::kBatchEnd);
}

TEST(BoundedEventQueueTest, PushAfterCloseAllThrows) {
  BoundedEventQueue q(4, 1 << 20, AdmissionPolicy::kBlock);
  q.CloseAll();
  EXPECT_THROW(q.Push(Ev(1, 0)), std::logic_error);
}

TEST(BoundedEventQueueTest, BlockingProducerDrainsInFifoOrderAcrossThreads) {
  // A tiny cap forces the producer to block repeatedly; the consumer
  // must still observe every event exactly once, in admission order.
  // (This test is part of the ThreadSanitizer CI job.)
  constexpr int kEvents = 20000;
  BoundedEventQueue q(8, 1 << 20, AdmissionPolicy::kBlock);
  std::thread producer([&] {
    for (int i = 0; i < kEvents; ++i) {
      ASSERT_TRUE(q.Push(Ev(i, static_cast<std::uint32_t>(i % 7))));
    }
    q.CloseBatch();
    q.CloseAll();
  });
  std::vector<PackedEvent> got;
  bool saw_boundary = false;
  for (;;) {
    const auto r = q.Pop(got, 64);
    if (r == BoundedEventQueue::PopResult::kBatchEnd) {
      saw_boundary = true;
      continue;
    }
    if (r == BoundedEventQueue::PopResult::kClosed) break;
  }
  producer.join();
  EXPECT_TRUE(saw_boundary);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)].ts, i) << "out of order";
  }
  EXPECT_EQ(q.admitted(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(q.shed(), 0u);
}

// --- Journal ---------------------------------------------------------------

JournalState SampleState() {
  JournalState s;
  s.config_fingerprint = 0xfeedface;
  s.cycle = 7;
  s.alerts_bytes = 123;
  s.alerts_count = 3;
  s.ledger_bytes = 4567;
  s.last_scored_day = 14975;
  s.batches.push_back(BatchRecord{"b001", 0xabcd, 14950, 14960});
  s.batches.push_back(BatchRecord{"b002-empty", 0x1234, 0, -1});
  s.shards.push_back(ShardRecord{false, 0});
  s.shards.push_back(ShardRecord{true, 4});
  s.monitors.emplace_back("Engineering", std::string("\x00\x01monitor", 9));
  s.monitors.emplace_back("Sales", "");
  return s;
}

TEST(JournalTest, RoundTripsEveryField) {
  TempDir dir;
  const std::string path = dir.file("service.journal");
  const JournalState in = SampleState();
  SaveJournal(path, in);
  const auto out = LoadJournal(path);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->config_fingerprint, in.config_fingerprint);
  EXPECT_EQ(out->cycle, in.cycle);
  EXPECT_EQ(out->alerts_bytes, in.alerts_bytes);
  EXPECT_EQ(out->alerts_count, in.alerts_count);
  EXPECT_EQ(out->ledger_bytes, in.ledger_bytes);
  EXPECT_EQ(out->last_scored_day, in.last_scored_day);
  ASSERT_EQ(out->batches.size(), 2u);
  EXPECT_EQ(out->batches[0].name, "b001");
  EXPECT_EQ(out->batches[0].digest, 0xabcdu);
  EXPECT_EQ(out->batches[0].day_lo, 14950);
  EXPECT_EQ(out->batches[0].day_hi, 14960);
  EXPECT_EQ(out->batches[1].day_hi, -1);
  ASSERT_EQ(out->shards.size(), 2u);
  EXPECT_FALSE(out->shards[0].quarantined);
  EXPECT_TRUE(out->shards[1].quarantined);
  EXPECT_EQ(out->shards[1].failures, 4u);
  ASSERT_EQ(out->monitors.size(), 2u);
  EXPECT_EQ(out->monitors[0].first, "Engineering");
  EXPECT_EQ(out->monitors[0].second.size(), 9u);  // embedded NULs survive
  EXPECT_EQ(out->monitors[1].second, "");
}

TEST(JournalTest, MissingFileIsAFreshStart) {
  TempDir dir;
  EXPECT_FALSE(LoadJournal(dir.file("nope.journal")).has_value());
}

// --- AppendLog -------------------------------------------------------------

TEST(AppendLogTest, TruncatesTornTailBackToCommittedPrefix) {
  TempDir dir;
  const std::string path = dir.file("alerts.jsonl");
  std::uint64_t committed = 0;
  {
    AppendLog log(path, 0);
    log.Append("{\"seq\":1}");
    log.Sync();
    committed = log.bytes();
    // Torn tail: appended but the "journal" (us) never recorded it.
    log.Append("{\"seq\":2,\"torn\":true}");
  }
  ASSERT_GT(fs::file_size(path), committed);

  // Reopen at the committed prefix: the tail is gone, appends resume.
  AppendLog log(path, committed);
  EXPECT_EQ(log.bytes(), committed);
  EXPECT_EQ(fs::file_size(path), committed);
  log.Append("{\"seq\":2}");
  log.Sync();
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  EXPECT_EQ(l1, "{\"seq\":1}");
  EXPECT_EQ(l2, "{\"seq\":2}");
  EXPECT_FALSE(std::getline(in, l3));
}

TEST(AppendLogTest, FileShorterThanCommittedIsCorruption) {
  TempDir dir;
  const std::string path = dir.file("ledger.jsonl");
  {
    std::ofstream f(path);
    f << "short\n";
  }
  EXPECT_THROW(AppendLog(path, 1000), JournalError);
}

// --- MonitorState driven incrementally vs the batch scan -------------------

// A small grid with distinct scores everywhere (no rank or peak ties),
// so the incremental peak tracking must agree with the batch
// aspect-major scan exactly.
ScoreGrid DistinctGrid(int users, int days) {
  ScoreGrid grid({"logon", "device"}, users, 0, days);
  float v = 0.0f;
  for (int a = 0; a < 2; ++a) {
    for (int u = 0; u < users; ++u) {
      for (int d = 0; d < days; ++d) {
        grid.At(a, u, d) = v;
        v += 0.0017f;
      }
    }
  }
  // Make user 1 clearly hot on days 3..6 and user 3 on days 10..12.
  for (int d = 3; d <= 6; ++d) grid.At(0, 1, d) = 10.0f + d;
  for (int d = 10; d <= 12; ++d) grid.At(1, 3, d) = 20.0f + d;
  return grid;
}

// Days [from, to) of `grid`, re-based to start at day 0.
ScoreGrid DaySlice(const ScoreGrid& grid, int from, int to) {
  std::vector<std::string> names;
  for (int a = 0; a < grid.aspects(); ++a) {
    names.push_back(grid.aspect_name(a));
  }
  ScoreGrid slice(names, grid.users(), 0, to - from);
  for (int a = 0; a < grid.aspects(); ++a) {
    for (int u = 0; u < grid.users(); ++u) {
      for (int d = from; d < to; ++d) {
        slice.At(a, u, d - from) = grid.At(a, u, d);
      }
    }
  }
  return slice;
}

// Closed alerts plus the still-open ones, in FindPersistentAlerts order.
std::vector<Alert> WithOpen(std::vector<Alert> alerts,
                            const MonitorState& state) {
  for (const Alert& a : state.OpenAlerts()) alerts.push_back(a);
  std::sort(alerts.begin(), alerts.end(),
            [](const Alert& a, const Alert& b) {
              return a.first_day < b.first_day;
            });
  return alerts;
}

void ExpectSameAlerts(const std::vector<Alert>& got,
                      const std::vector<Alert>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].user_idx, expect[i].user_idx);
    EXPECT_EQ(got[i].first_day, expect[i].first_day);
    EXPECT_EQ(got[i].last_day, expect[i].last_day);
    EXPECT_EQ(got[i].firing_days, expect[i].firing_days);
    EXPECT_EQ(got[i].peak_day, expect[i].peak_day);
    EXPECT_EQ(got[i].peak_aspect_name, expect[i].peak_aspect_name);
    EXPECT_FLOAT_EQ(got[i].peak_score, expect[i].peak_score);
  }
}

TEST(MonitorStateTest, IncrementalDriveMatchesBatchScan) {
  const ScoreGrid grid = DistinctGrid(5, 16);
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 2;
  cfg.cooloff_days = 2;
  const std::vector<Alert> batch = FindPersistentAlerts(grid, cfg);
  ASSERT_FALSE(batch.empty());

  // One day per AdvanceGrid call, as the daemon's one-day cycles do.
  MonitorState state(cfg);
  std::vector<Alert> mine;
  for (int d = 0; d < 16; ++d) {
    state.AdvanceGrid(DaySlice(grid, d, d + 1), d, &mine);
  }
  ExpectSameAlerts(WithOpen(mine, state), batch);
}

TEST(MonitorStateTest, ChunkedFeedWithSaveLoadMatchesOneShot) {
  const ScoreGrid grid = DistinctGrid(5, 16);
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 2;
  cfg.cooloff_days = 2;

  MonitorState oneshot(cfg);
  std::vector<Alert> expect;
  oneshot.AdvanceGrid(grid, 0, &expect);

  // Same observations in three chunks, serialized between chunks (the
  // daemon's restart path).
  MonitorState st(cfg);
  std::vector<Alert> got;
  st.AdvanceGrid(DaySlice(grid, 0, 5), 0, &got);
  std::stringstream s1;
  st.Save(s1);
  MonitorState st2 = MonitorState::Load(s1);
  EXPECT_EQ(st2.last_day(), 4);
  st2.AdvanceGrid(DaySlice(grid, 5, 11), 5, &got);
  std::stringstream s2;
  st2.Save(s2);
  MonitorState st3 = MonitorState::Load(s2);
  st3.AdvanceGrid(DaySlice(grid, 11, 16), 11, &got);

  ExpectSameAlerts(got, expect);
  const auto open1 = oneshot.OpenAlerts();
  const auto open2 = st3.OpenAlerts();
  ASSERT_EQ(open1.size(), open2.size());
  ExpectSameAlerts(WithOpen(got, st3), FindPersistentAlerts(grid, cfg));
}

// --- CycleStatsRing ---------------------------------------------------

service::CycleStat MakeStat(std::uint64_t cycle, double total_s,
                            double latency_s) {
  service::CycleStat s;
  s.cycle = cycle;
  s.batch = "batch-" + std::to_string(cycle);
  s.total_s = total_s;
  s.alert_latency_s = latency_s;
  return s;
}

TEST(CycleStatsTest, NearestRankMatchesDefinition) {
  // rank = ceil(q * N) over the sorted samples, 1-based.
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(service::NearestRank(v, 0.50), 3.0);
  EXPECT_DOUBLE_EQ(service::NearestRank(v, 0.95), 5.0);
  EXPECT_DOUBLE_EQ(service::NearestRank(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(service::NearestRank(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(service::NearestRank({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(service::NearestRank({}, 0.5), 0.0);
}

TEST(CycleStatsTest, EmptyRingRollsUpToZero) {
  service::CycleStatsRing ring;
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_TRUE(ring.Recent(10).empty());
  const auto lat = ring.AlertLatency();
  EXPECT_EQ(lat.count, 0u);
  EXPECT_DOUBLE_EQ(lat.p50, 0.0);
  EXPECT_DOUBLE_EQ(lat.max, 0.0);
  const auto wall = ring.CycleWall();
  EXPECT_EQ(wall.count, 0u);
}

TEST(CycleStatsTest, WraparoundKeepsTheMostRecentInOrder) {
  service::CycleStatsRing ring(4);
  for (std::uint64_t c = 1; c <= 10; ++c) {
    ring.Record(MakeStat(c, 0.1 * static_cast<double>(c), -1.0));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  // Oldest-first: cycles 7,8,9,10 survive.
  const auto recent = ring.Recent(100);
  ASSERT_EQ(recent.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recent[i].cycle, 7 + i);
    EXPECT_EQ(recent[i].batch, "batch-" + std::to_string(7 + i));
  }
  // Recent(n < size) returns the newest n, still oldest-first.
  const auto tail = ring.Recent(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].cycle, 9u);
  EXPECT_EQ(tail[1].cycle, 10u);
}

TEST(CycleStatsTest, RollupsExcludeCyclesWithoutAlerts) {
  service::CycleStatsRing ring;
  // Latencies 10..50 on alerting cycles; -1 marks alertless cycles
  // that must not drag the percentiles toward zero.
  for (int i = 1; i <= 5; ++i) {
    ring.Record(MakeStat(static_cast<std::uint64_t>(i),
                         /*total_s=*/static_cast<double>(i),
                         /*latency_s=*/10.0 * i));
    ring.Record(MakeStat(static_cast<std::uint64_t>(100 + i),
                         /*total_s=*/100.0, /*latency_s=*/-1.0));
  }
  const auto lat = ring.AlertLatency();
  EXPECT_EQ(lat.count, 5u);
  EXPECT_DOUBLE_EQ(lat.p50, 30.0);
  EXPECT_DOUBLE_EQ(lat.p95, 50.0);
  EXPECT_DOUBLE_EQ(lat.max, 50.0);
  // CycleWall covers every retained record, alertless ones included.
  const auto wall = ring.CycleWall();
  EXPECT_EQ(wall.count, 10u);
  EXPECT_DOUBLE_EQ(wall.max, 100.0);
}

TEST(CycleStatsTest, ExportSloGaugesPublishesWhenMetricsOn) {
  telemetry::ResetTelemetry();
  telemetry::EnableMetrics(true);
  service::CycleStatsRing ring;
  ring.Record(MakeStat(1, 2.0, 40.0));
  ring.Record(MakeStat(2, 4.0, 20.0));
  ring.ExportSloGauges();
  EXPECT_DOUBLE_EQ(
      telemetry::GetGauge("service.slo.alert_latency_p50_s").value(), 20.0);
  EXPECT_DOUBLE_EQ(
      telemetry::GetGauge("service.slo.alert_latency_p95_s").value(), 40.0);
  EXPECT_DOUBLE_EQ(
      telemetry::GetGauge("service.slo.cycle_wall_p50_s").value(), 2.0);
  EXPECT_DOUBLE_EQ(
      telemetry::GetGauge("service.slo.cycle_wall_p95_s").value(), 4.0);
  EXPECT_DOUBLE_EQ(
      telemetry::GetGauge("service.slo.cycles_observed").value(), 2.0);
  telemetry::EnableMetrics(false);
  telemetry::ResetTelemetry();
}

TEST(CycleStatsTest, ConcurrentRecordAndSnapshotStayConsistent) {
  service::CycleStatsRing ring(64);
  std::thread writer([&ring] {
    for (std::uint64_t c = 1; c <= 2000; ++c) {
      ring.Record(MakeStat(c, 0.001, -1.0));
    }
  });
  // Readers must always see a contiguous, ordered suffix of cycles.
  for (int r = 0; r < 200; ++r) {
    const auto snap = ring.Recent(64);
    for (std::size_t i = 1; i < snap.size(); ++i) {
      ASSERT_EQ(snap[i].cycle, snap[i - 1].cycle + 1);
    }
  }
  writer.join();
  EXPECT_EQ(ring.total_recorded(), 2000u);
  EXPECT_EQ(ring.size(), 64u);
}

TEST(SupervisorTest, UndecodableMonitorBlobIsAJournalError) {
  TempDir dir;
  const std::string watch = dir.file("watch");
  const std::string out = dir.file("out");
  fs::create_directories(watch);
  const std::string roster = dir.file("ldap.csv");
  {
    std::ofstream f(roster);
    f << "user,department,team,role\n";
    for (const char* u : {"AAA0001", "AAA0002", "AAA0003"}) {
      f << u << ",Engineering,T1,Employee\n";
    }
  }
  ServiceConfig cfg;
  cfg.watch_dir = watch;
  cfg.out_dir = out;
  cfg.roster_path = roster;
  cfg.shards = 1;
  { ServiceSupervisor(cfg).Start(); }

  const std::string jpath = out + "/service.journal";
  std::optional<JournalState> journal = LoadJournal(jpath);
  ASSERT_TRUE(journal.has_value());
  journal->monitors.emplace_back("Engineering", "not a monitor snapshot");
  SaveJournal(jpath, *journal);

  // The restart must fail the way a corrupt journal does (acobe_serve
  // exits kExitCorruptArtifact), naming the department.
  ServiceSupervisor restarted(cfg);
  try {
    restarted.Start();
    FAIL() << "restart accepted an undecodable monitor blob";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("Engineering"), std::string::npos)
        << e.what();
  }
}

}  // namespace
