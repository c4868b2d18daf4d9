// The resident service's building blocks: the CRC'd cycle journal with
// its truncate-to-committed append logs, the incremental MonitorState
// drive matching the batch monitor, and in-process supervisor drains
// (shard-count identity, batch digests, cycle time buckets, redelivered
// batches under the permissive policy).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/date.h"
#include "common/faults.h"
#include "common/telemetry.h"
#include "core/critic.h"
#include "core/monitor.h"
#include "core/score_grid.h"
#include "logs/log_io.h"
#include "logs/log_store.h"
#include "service/cycle_stats.h"
#include "service/journal.h"
#include "service/supervisor.h"
#include "simdata/cert_simulator.h"
#include "simdata/fault_injector.h"

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

// --- In-process drains ------------------------------------------------------

constexpr const char* kTinyBatchCsvs[] = {"device.csv", "file.csv",
                                          "http.csv", "logon.csv"};
constexpr int kTinyDays = 10;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// Splits one whole-range CSV into per-day batch files: the header goes
// to every day that has rows, each row to the day of its timestamp.
// Rows after the last day are left out.
void SplitCsvByDay(const std::string& csv, std::int64_t first_day,
                   const std::string& watch, const std::string& name) {
  std::istringstream in(csv);
  std::string header, line;
  std::getline(in, header);
  std::vector<std::string> days(kTinyDays);
  while (std::getline(in, line)) {
    const std::int64_t day = std::stoll(line.substr(0, line.find(','))) /
                                 86400 - first_day;
    ASSERT_GE(day, 0);
    if (day >= kTinyDays) continue;  // a logon running past the end
    days[static_cast<std::size_t>(day)] += line + "\n";
  }
  for (int d = 0; d < kTinyDays; ++d) {
    if (days[static_cast<std::size_t>(d)].empty()) continue;
    std::ofstream(watch + "/day-" + std::to_string(100 + d) + "/" + name)
        << header << "\n" << days[static_cast<std::size_t>(d)];
  }
}

// A tiny simulated org (3 departments of 5 users, an insider planted in
// the first one from the sixth day) cut into one batch directory per
// day. Odd days drop their file.csv, so the digest fold also sees
// absent files.
void WriteTinyOrg(const std::string& watch, const std::string& roster) {
  LogStore store;
  sim::CertSimConfig cfg;
  cfg.org.departments = 3;
  cfg.org.users_per_department = 5;
  cfg.org.extra_users = 0;
  cfg.start = Date(2010, 1, 4);
  cfg.end = Date(2010, 1, 4 + kTinyDays - 1);
  cfg.profiles.rate_scale = 0.3;
  cfg.seed = 11;
  sim::CertSimulator simulator(cfg, store);
  simulator.InjectScenario(sim::InsiderScenarioKind::kScenario1, 0,
                           Date(2010, 1, 9), 3);
  simulator.Run(store);
  store.SortChronologically();

  const std::int64_t first_day = cfg.start.DayNumber();
  for (int d = 0; d < kTinyDays; ++d) {
    fs::create_directories(watch + "/day-" + std::to_string(100 + d));
  }
  std::ostringstream device, file, http, logon;
  CsvEventSink(store, &logon, &device, &file, &http).ConsumeStore(store);
  SplitCsvByDay(device.str(), first_day, watch, "device.csv");
  SplitCsvByDay(file.str(), first_day, watch, "file.csv");
  SplitCsvByDay(http.str(), first_day, watch, "http.csv");
  SplitCsvByDay(logon.str(), first_day, watch, "logon.csv");
  std::ofstream ldap(roster);
  WriteLdapCsv(store, ldap);
  for (int d = 0; d < kTinyDays; ++d) {
    const std::string dir = watch + "/day-" + std::to_string(100 + d);
    if (d % 2 == 1) fs::remove(dir + "/file.csv");
    std::ofstream(dir + "/READY");
  }
}

ServiceConfig TinyConfig(const std::string& watch, const std::string& out,
                         const std::string& roster, int shards) {
  ServiceConfig cfg;
  cfg.watch_dir = watch;
  cfg.out_dir = out;
  cfg.roster_path = roster;
  cfg.window_days = 8;
  cfg.train_days = 5;
  cfg.omega = 3;
  cfg.epochs = 1;
  cfg.cooloff_days = 1;  // so alerts close within the ten days
  cfg.shards = shards;
  return cfg;
}

struct DrainResult {
  std::string alerts;
  std::string ledger;  // run_complete included; the manifest's shards not
  std::vector<service::CycleStat> cycles;
  std::size_t departments_scored = 0;
};

DrainResult DrainInProcess(const ServiceConfig& cfg) {
  DrainResult r;
  ServiceSupervisor sup(cfg);
  sup.Start();
  const std::vector<service::CycleStat> reports =
      sup.ProcessAvailableBatches();
  EXPECT_EQ(reports.size(), static_cast<std::size_t>(kTinyDays));
  for (const service::CycleStat& rep : reports) {
    r.departments_scored += rep.departments_scored;
  }
  r.cycles = sup.cycle_stats().Recent(64);
  sup.Finish("drained");
  r.alerts = ReadFile(cfg.out_dir + "/alerts.jsonl");
  r.ledger = std::regex_replace(ReadFile(cfg.out_dir + "/ledger.jsonl"),
                                std::regex(R"(, "shards": \d+)"), "");
  return r;
}

TEST(SupervisorTest, DrainIsIdenticalAtOneAndThreeShards) {
  TempDir dir;
  const std::string watch = dir.file("watch");
  const std::string roster = dir.file("ldap.csv");
  WriteTinyOrg(watch, roster);

  const DrainResult one =
      DrainInProcess(TinyConfig(watch, dir.file("out1"), roster, 1));
  const DrainResult three =
      DrainInProcess(TinyConfig(watch, dir.file("out3"), roster, 3));

  // Days 5..9 score all three departments.
  EXPECT_EQ(one.departments_scored, 15u);
  EXPECT_EQ(three.departments_scored, 15u);
  EXPECT_NE(one.ledger.find("\"event\": \"detection\""), std::string::npos);
  EXPECT_FALSE(one.alerts.empty());
  EXPECT_EQ(one.alerts, three.alerts);
  EXPECT_EQ(one.ledger, three.ledger);

  // The cycle's wall-clock buckets add up to its separately timed
  // total (to rounding: each is a nanosecond count in seconds).
  for (const DrainResult* r : {&one, &three}) {
    ASSERT_EQ(r->cycles.size(), static_cast<std::size_t>(kTinyDays));
    for (const service::CycleStat& c : r->cycles) {
      EXPECT_GT(c.detect_s, 0.0) << "cycle " << c.cycle;
      EXPECT_NEAR(c.ingest_s + c.detect_s + c.commit_s, c.total_s, 1e-9)
          << "cycle " << c.cycle;
    }
  }
}

TEST(SupervisorTest, JournaledBatchDigestIsTheCrcOfTheConcatenatedFiles) {
  TempDir dir;
  const std::string watch = dir.file("watch");
  const std::string roster = dir.file("ldap.csv");
  const std::string out = dir.file("out");
  WriteTinyOrg(watch, roster);
  {
    ServiceSupervisor sup(TinyConfig(watch, out, roster, 2));
    sup.Start();
    sup.ProcessAvailableBatches();
  }
  const std::optional<JournalState> journal =
      LoadJournal(out + "/service.journal");
  ASSERT_TRUE(journal.has_value());
  ASSERT_EQ(journal->batches.size(), static_cast<std::size_t>(kTinyDays));
  for (const BatchRecord& b : journal->batches) {
    std::string concat;
    for (const char* csv : kTinyBatchCsvs) {
      const std::string path = watch + "/" + b.name + "/" + csv;
      if (fs::exists(path)) concat += ReadFile(path);
    }
    EXPECT_EQ(b.digest, Crc32(concat)) << b.name;
  }
}

// The ledger's detection events (score digests and lists), one per line.
std::string DetectionLines(const std::string& ledger) {
  std::istringstream in(ledger);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"event\": \"detection\"") != std::string::npos) {
      out += line + "\n";
    }
  }
  return out;
}

// At-least-once shipping redelivers: a garbled row is followed by its
// clean retransmission, and some rows arrive twice. Drained permissive,
// such batches must detect exactly what the clean ones do drained strict.
TEST(SupervisorTest, PermissiveDrainOfRedeliveredBatchesMatchesCleanStrict) {
  TempDir dir;
  const std::string watch = dir.file("watch");
  const std::string roster = dir.file("ldap.csv");
  WriteTinyOrg(watch, roster);
  const DrainResult clean =
      DrainInProcess(TinyConfig(watch, dir.file("clean"), roster, 2));

  sim::FaultInjectorConfig faults;
  faults.rate = 0.05;
  faults.seed = 5;
  faults.redeliver = true;
  const sim::FaultInjector injector(faults);
  std::size_t duplicated = 0, garbled = 0;
  for (const auto& batch : fs::directory_iterator(watch)) {
    for (const char* csv : kTinyBatchCsvs) {
      const fs::path path = batch.path() / csv;
      if (!fs::exists(path)) continue;
      std::string text = ReadFile(path.string());
      const sim::FaultReport report = injector.Corrupt(
          text, Crc32(batch.path().filename().string() + "/" + csv));
      duplicated += report.rows_duplicated;
      garbled += report.rows_corrupted - report.rows_duplicated;
      std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    }
  }
  ASSERT_GT(duplicated, 0u);
  ASSERT_GT(garbled, 0u);

  ServiceConfig cfg = TinyConfig(watch, dir.file("redelivered"), roster, 2);
  cfg.ingest.policy = IngestPolicy::kPermissive;
  cfg.ingest.error_budget = 0.5;  // a 100-row file can draw 6% garbles
  const DrainResult redelivered = DrainInProcess(cfg);
  EXPECT_FALSE(clean.alerts.empty());
  EXPECT_EQ(redelivered.alerts, clean.alerts);
  EXPECT_NE(DetectionLines(clean.ledger), "");
  EXPECT_EQ(DetectionLines(redelivered.ledger), DetectionLines(clean.ledger));
}

TEST(SupervisorTest, OnlyTheBlockAdmissionPolicyParses) {
  EXPECT_EQ(AdmissionPolicyFromString("block"), AdmissionPolicy::kBlock);
  EXPECT_STREQ(ToString(AdmissionPolicy::kBlock), "block");
  EXPECT_THROW(AdmissionPolicyFromString("shed"), std::invalid_argument);
}

}  // namespace
