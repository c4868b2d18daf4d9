// Streaming data plane: the external-sort spool, the per-department
// demux, and the contract the whole PR rests on — the out-of-core path
// produces bit-identical measurement cubes and detection scores to the
// in-memory path on the same dataset.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry.h"
#include "core/detector.h"
#include "features/cert_features.h"
#include "features/shard_extract.h"
#include "common/timeframe.h"
#include "logs/log_store.h"
#include "logs/spool.h"
#include "simdata/cert_simulator.h"

namespace acobe {
namespace {

std::string SpoolDir(const char* name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Records everything replayed into it, preserving arrival order.
struct RecordingSink : LogSink {
  std::vector<LogonEvent> logons;
  std::vector<DeviceEvent> devices;
  std::vector<FileEvent> files;
  std::vector<HttpEvent> https;
  std::vector<Timestamp> arrival;  // all events, in replay order

  void Consume(const LogonEvent& e) override {
    logons.push_back(e);
    arrival.push_back(e.ts);
  }
  void Consume(const DeviceEvent& e) override {
    devices.push_back(e);
    arrival.push_back(e.ts);
  }
  void Consume(const FileEvent& e) override {
    files.push_back(e);
    arrival.push_back(e.ts);
  }
  void Consume(const HttpEvent& e) override {
    https.push_back(e);
    arrival.push_back(e.ts);
  }
  void Consume(const EmailEvent& e) override { arrival.push_back(e.ts); }
  void Consume(const EnterpriseEvent& e) override { arrival.push_back(e.ts); }
  void Consume(const ProxyEvent& e) override { arrival.push_back(e.ts); }
};

constexpr Timestamp kDay = kSecondsPerDay;

TEST(SpoolTest, RoundTripPreservesFieldsAndRouting) {
  ShardSpooler spool(SpoolDir("spool_roundtrip"), 2, 1 << 12);
  spool.AssignUser(1, 0);
  spool.AssignUser(2, 1);
  // user 3 stays unassigned (outside the roster) and must be dropped.

  LogonEvent logon;
  logon.ts = 3 * kDay + 100;
  logon.user = 1;
  logon.pc = 7;
  logon.activity = LogonActivity::kLogon;
  spool.Consume(logon);

  DeviceEvent device;
  device.ts = 1 * kDay + 50;
  device.user = 1;
  device.pc = 7;
  device.activity = DeviceActivity::kConnect;
  spool.Consume(device);

  FileEvent file;
  file.ts = 2 * kDay + 10;
  file.user = 2;
  file.pc = 9;
  file.file = 4;
  file.activity = FileActivity::kWrite;
  file.from = FileLocation::kRemote;
  file.to = FileLocation::kLocal;
  spool.Consume(file);

  HttpEvent http;
  http.ts = 1 * kDay + 20;
  http.user = 3;  // dropped
  http.domain = 5;
  spool.Consume(http);

  spool.Finish();
  EXPECT_EQ(spool.events_spooled(), 3u);
  EXPECT_EQ(spool.events_dropped(), 1u);
  // The timestamp range covers every event seen, dropped ones included,
  // exactly like the in-memory path's scan over the raw streams.
  EXPECT_EQ(spool.ts_lo(), 1 * kDay + 20);
  EXPECT_EQ(spool.ts_hi(), 3 * kDay + 100);

  RecordingSink shard0, shard1;
  spool.Replay(0, shard0);
  spool.Replay(1, shard1);

  ASSERT_EQ(shard0.logons.size(), 1u);
  ASSERT_EQ(shard0.devices.size(), 1u);
  EXPECT_TRUE(shard0.files.empty());
  EXPECT_TRUE(shard0.https.empty());
  EXPECT_EQ(shard0.logons[0].ts, logon.ts);
  EXPECT_EQ(shard0.logons[0].user, 1u);
  EXPECT_EQ(shard0.logons[0].pc, 7u);
  EXPECT_EQ(shard0.logons[0].activity, LogonActivity::kLogon);
  EXPECT_EQ(shard0.devices[0].ts, device.ts);
  EXPECT_EQ(shard0.devices[0].activity, DeviceActivity::kConnect);
  // Day order within the shard: the device (day 1) before the logon
  // (day 3).
  ASSERT_EQ(shard0.arrival.size(), 2u);
  EXPECT_LT(shard0.arrival[0] / kDay, shard0.arrival[1] / kDay);

  ASSERT_EQ(shard1.files.size(), 1u);
  EXPECT_EQ(shard1.files[0].ts, file.ts);
  EXPECT_EQ(shard1.files[0].user, 2u);
  EXPECT_EQ(shard1.files[0].file, 4u);
  EXPECT_EQ(shard1.files[0].activity, FileActivity::kWrite);
  EXPECT_EQ(shard1.files[0].from, FileLocation::kRemote);
  EXPECT_EQ(shard1.files[0].to, FileLocation::kLocal);
}

TEST(SpoolTest, ManySpilledRunsMergeInNondecreasingDayOrder) {
  // A buffer this small forces dozens of spilled runs; the k-way merge
  // must still replay days in nondecreasing order with nothing lost.
  ShardSpooler spool(SpoolDir("spool_merge"), 1, 1 << 10);
  spool.AssignUser(0, 0);
  std::vector<Timestamp> sent;
  std::uint64_t state = 12345;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    LogonEvent e;
    e.ts = static_cast<Timestamp>((state >> 33) % (90 * kDay));
    e.user = 0;
    e.pc = 1;
    sent.push_back(e.ts);
    spool.Consume(e);
  }
  spool.Finish();
  RecordingSink sink;
  spool.Replay(0, sink);
  ASSERT_EQ(sink.arrival.size(), sent.size());
  for (std::size_t i = 1; i < sink.arrival.size(); ++i) {
    EXPECT_LE(sink.arrival[i - 1] / kDay, sink.arrival[i] / kDay);
  }
  // Exact multiset of timestamps survives the round trip.
  std::vector<Timestamp> got = sink.arrival;
  std::sort(got.begin(), got.end());
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(got, sent);
}

TEST(SpoolTest, RemoveCleansUpShardFilesAndDirectory) {
  const std::string dir = SpoolDir("spool_cleanup");
  {
    ShardSpooler spool(dir, 2, 1 << 12);
    spool.AssignUser(0, 0);
    LogonEvent e;
    e.ts = kDay;
    e.user = 0;
    spool.Consume(e);
    spool.Finish();
    EXPECT_TRUE(std::filesystem::exists(dir));
  }  // destructor removes
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// --- Bounded spool: background writer, recycled buffers ------------------

std::uint64_t CounterValue(const char* name) {
  return telemetry::GetCounter(name).value();
}

/// Logons of users 0..3 on random days in [0, max_day); the pc field
/// numbers them in arrival order.
std::vector<LogonEvent> NumberedLogons(std::size_t n, std::int64_t max_day) {
  std::vector<LogonEvent> events(n);
  std::uint64_t state = 777;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    events[i].ts = static_cast<Timestamp>((state >> 20) %
                                          static_cast<std::uint64_t>(
                                              max_day * kDay));
    events[i].user = static_cast<UserId>((state >> 8) % 4);
    events[i].pc = static_cast<PcId>(i);
  }
  return events;
}

/// The pc numbers of `events` routed to `shard` (users 0,1 -> 0; 2,3 ->
/// 1), stably sorted by day: the order a correct replay delivers.
std::vector<PcId> StableDayOrder(std::vector<LogonEvent> events, int shard) {
  std::erase_if(events, [shard](const LogonEvent& e) {
    return static_cast<int>(e.user / 2) != shard;
  });
  std::stable_sort(events.begin(), events.end(),
                   [](const LogonEvent& a, const LogonEvent& b) {
                     return a.ts / kDay < b.ts / kDay;
                   });
  std::vector<PcId> order;
  for (const LogonEvent& e : events) order.push_back(e.pc);
  return order;
}

std::vector<PcId> ReplayedPcs(const ShardSpooler& spool, int shard) {
  RecordingSink sink;
  spool.Replay(shard, sink);
  std::vector<PcId> order;
  for (const LogonEvent& e : sink.logons) order.push_back(e.pc);
  return order;
}

TEST(SpoolTest, TinyBudgetReplaysAsStableDaySort) {
  telemetry::EnableMetrics(true);
  // 1 KiB clamps to 1024 events per shard: ~15 runs in each of two
  // shards, each spanning 90 days (the counting sort's range).
  const std::vector<LogonEvent> events = NumberedLogons(30000, 90);
  const std::uint64_t runs_before = CounterValue("spool.runs");
  const std::uint64_t fallbacks_before = CounterValue("spool.sort_fallbacks");
  ShardSpooler spool(SpoolDir("spool_tiny"), 2, 1 << 10);
  for (UserId u = 0; u < 4; ++u) spool.AssignUser(u, static_cast<int>(u / 2));
  for (const LogonEvent& e : events) spool.Consume(e);
  spool.Finish();
  if (telemetry::MetricsEnabled()) {
    EXPECT_GE(CounterValue("spool.runs") - runs_before, 28u);
    EXPECT_EQ(CounterValue("spool.sort_fallbacks"), fallbacks_before);
  }
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(ReplayedPcs(spool, s), StableDayOrder(events, s)) << s;
  }
  telemetry::EnableMetrics(false);
}

TEST(SpoolTest, DecadeSpanningBufferTakesTheStableSortFallback) {
  telemetry::EnableMetrics(true);
  // 40 years of days in 1024-event buffers: the span exceeds the count.
  const std::vector<LogonEvent> events = NumberedLogons(5000, 40 * 365);
  const std::uint64_t fallbacks_before = CounterValue("spool.sort_fallbacks");
  ShardSpooler spool(SpoolDir("spool_decades"), 2, 1 << 10);
  for (UserId u = 0; u < 4; ++u) spool.AssignUser(u, static_cast<int>(u / 2));
  for (const LogonEvent& e : events) spool.Consume(e);
  spool.Finish();
  if (telemetry::MetricsEnabled()) {
    EXPECT_GE(CounterValue("spool.sort_fallbacks") - fallbacks_before, 2u);
  }
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(ReplayedPcs(spool, s), StableDayOrder(events, s)) << s;
  }
  telemetry::EnableMetrics(false);
}

TEST(SpoolTest, WriteFailureThrowsAndDestructorRemovesFiles) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // Ten events sit in the file buffer until Finish() closes the file.
  // 20000 fill 1024-event runs: the first spill fails on the writer, and
  // the Consume that hands over the next full buffer throws.
  for (const std::size_t n : {10u, 20000u}) {
    const std::string dir = SpoolDir("spool_full");
    std::filesystem::create_directories(dir);
    std::filesystem::create_symlink("/dev/full", dir + "/shard-0.spool");
    {
      ShardSpooler spool(dir, 2, 1 << 10);
      spool.AssignUser(0, 0);
      auto consume_all = [&] {
        for (LogonEvent e : NumberedLogons(n, 30)) {
          e.user = 0;
          spool.Consume(e);
        }
      };
      if (n == 10) {
        consume_all();
        EXPECT_THROW(spool.Finish(), std::runtime_error);
      } else {
        EXPECT_THROW(consume_all(), std::runtime_error);
      }
    }  // the destructor joins the writer and removes the files
    EXPECT_FALSE(std::filesystem::exists(dir)) << n;
    EXPECT_TRUE(std::filesystem::exists("/dev/full"));
  }
}

TEST(SpoolTest, RemoveWhileASpillIsInFlight) {
  const std::string dir = SpoolDir("spool_remove_inflight");
  ShardSpooler spool(dir, 1, 1 << 10);
  spool.AssignUser(0, 0);
  // The last Consume fills the third buffer and hands it to the writer.
  for (LogonEvent e : NumberedLogons(3 * 1024, 30)) {
    e.user = 0;
    spool.Consume(e);
  }
  spool.Remove();
  EXPECT_FALSE(std::filesystem::exists(dir));
  spool.Remove();  // idempotent, as the destructor's call will be
}

/// Simulates a small two-department org and returns the sorted store.
LogStore* SharedCertStore() {
  static LogStore* store = [] {
    auto* s = new LogStore;
    sim::CertSimConfig cfg;
    cfg.org.departments = 2;
    cfg.org.users_per_department = 8;
    cfg.org.extra_users = 0;
    cfg.start = Date(2010, 1, 2);
    cfg.end = Date(2010, 3, 15);
    cfg.profiles.rate_scale = 0.3;
    cfg.seed = 424242;
    sim::CertSimulator simulator(cfg, *s);
    simulator.Run(*s);
    s->SortChronologically();
    return s;
  }();
  return store;
}

constexpr Date kStart{2010, 1, 2};
constexpr int kDays = 73;  // 2010-01-02 .. 2010-03-15

TEST(StreamingTest, CubesBitIdenticalToInMemory) {
  LogStore& store = *SharedCertStore();

  // In-memory path: one cube over everyone.
  CertAcobeExtractor full(kStart, kDays);
  ReplayStore(store, full);
  for (const LdapRecord& r : store.ldap()) full.cube().RegisterUser(r.user);

  // Streaming path: spool, then per-shard demux into per-dept cubes.
  ShardSpooler spool(SpoolDir("spool_identity"), 2, 1 << 14);
  const std::vector<std::string> departments = store.Departments();
  ASSERT_EQ(departments.size(), 2u);
  for (const LdapRecord& r : store.ldap()) {
    const auto it =
        std::find(departments.begin(), departments.end(), r.department);
    spool.AssignUser(r.user, static_cast<int>(it - departments.begin()) % 2);
  }
  ReplayStore(store, spool);
  spool.Finish();

  for (int s = 0; s < 2; ++s) {
    DepartmentDemux demux(kStart, kDays);
    const std::string& dept = departments[s];
    const std::vector<UserId> members = store.UsersInDepartment(dept);
    demux.AddDepartment(dept, members);
    spool.Replay(s, demux);
    const MeasurementCube& dept_cube = demux.extractor(0).cube();
    const MeasurementCube& full_cube = full.cube();
    for (UserId user : members) {
      const int di = dept_cube.UserIndex(user);
      const int fi = full_cube.UserIndex(user);
      ASSERT_GE(di, 0);
      ASSERT_GE(fi, 0);
      for (int f = 0; f < full_cube.features(); ++f) {
        for (int d = 0; d < full_cube.days(); ++d) {
          for (int fr = 0; fr < full_cube.frames(); ++fr) {
            // Exact float equality: the contract is bit-identity, not
            // tolerance.
            ASSERT_EQ(dept_cube.At(di, f, d, fr), full_cube.At(fi, f, d, fr))
                << "user " << user << " feature " << f << " day " << d
                << " frame " << fr;
          }
        }
      }
    }
  }
}

TEST(StreamingTest, ScoresBitIdenticalToInMemory) {
  LogStore& store = *SharedCertStore();

  CertAcobeExtractor full(kStart, kDays);
  ReplayStore(store, full);
  for (const LdapRecord& r : store.ldap()) full.cube().RegisterUser(r.user);

  const std::vector<std::string> departments = store.Departments();
  const std::string& dept = departments[0];
  const std::vector<UserId> members = store.UsersInDepartment(dept);

  ShardSpooler spool(SpoolDir("spool_scores"), 1, 1 << 14);
  for (UserId user : members) spool.AssignUser(user, 0);
  ReplayStore(store, spool);
  spool.Finish();

  DetectorSpec spec;
  spec.deviation.omega = 10;
  spec.deviation.matrix_days = 10;
  spec.ensemble.encoder_dims = {16, 8};
  spec.ensemble.train.epochs = 2;
  spec.ensemble.train_stride = 4;
  spec.critic_votes = 1;

  const Detector detector(spec);
  const DetectionOutput in_memory =
      detector.Run(full.cube(), full.catalog(), members, 0, 50, 50, kDays);
  // The per-department unit the tools run, fed by the spool replay and
  // stopped before its second job.
  std::vector<std::size_t> asked;
  const std::vector<DetectionOutput> streamed_all = DetectDepartments(
      {{{{dept, members, spec}, {dept, members, spec}},
        [&](LogSink& sink) { spool.Replay(0, sink); }}},
      {.start = kStart, .days = kDays, .train_end = 50, .score_begin = 50,
       .score_end = kDays},
      /*threads=*/1,
      [&](std::size_t j) { asked.push_back(j); return j == 0; });
  ASSERT_EQ(streamed_all.size(), 1u);
  EXPECT_EQ(asked, (std::vector<std::size_t>{0, 1}));
  const DetectionOutput& streamed = streamed_all[0];

  EXPECT_EQ(in_memory.grid.Digest(), streamed.grid.Digest());
  ASSERT_EQ(in_memory.members, streamed.members);
  ASSERT_EQ(in_memory.list.size(), streamed.list.size());
  for (std::size_t i = 0; i < in_memory.list.size(); ++i) {
    EXPECT_EQ(in_memory.list[i].user_idx, streamed.list[i].user_idx);
    EXPECT_EQ(in_memory.list[i].priority, streamed.list[i].priority);
  }
}

TEST(StreamingTest, ManyRunSpoolScoresLikeAOneRunSpool) {
  LogStore& store = *SharedCertStore();
  const std::string dept = store.Departments()[0];
  const std::vector<UserId> members = store.UsersInDepartment(dept);
  DetectorSpec spec;
  spec.deviation.omega = 10;
  spec.deviation.matrix_days = 10;
  spec.ensemble.encoder_dims = {16, 8};
  spec.ensemble.train.epochs = 2;
  spec.ensemble.train_stride = 4;
  spec.critic_votes = 1;
  auto digest = [&](const char* name, std::size_t budget) {
    ShardSpooler spool(SpoolDir(name), 1, budget);
    for (UserId user : members) spool.AssignUser(user, 0);
    ReplayStore(store, spool);
    spool.Finish();
    EXPECT_GT(spool.events_spooled(), 4u * 1024);  // several 1024-event runs
    const std::vector<DetectionOutput> out = DetectDepartments(
        {{{{dept, members, spec}},
          [&](LogSink& sink) { spool.Replay(0, sink); }}},
        {.start = kStart, .days = kDays, .train_end = 50, .score_begin = 50,
         .score_end = kDays},
        /*threads=*/1);
    return out.at(0).grid.Digest();
  };
  // 1 KiB clamps to 1024-event runs; 64 MiB holds the whole store.
  EXPECT_EQ(digest("spool_many_runs", 1 << 10),
            digest("spool_one_run", 64u << 20));
}

TEST(DepartmentDemuxTest, RoutesMultiDepartmentUsersToEveryMembership) {
  DepartmentDemux demux(kStart, 10);
  const int a = demux.AddDepartment("A", {1, 2});
  const int b = demux.AddDepartment("B", {2, 3});
  DeviceEvent e;
  e.ts = MakeTimestamp(kStart, 10, 0, 0);
  e.user = 2;  // member of both departments
  e.pc = 1;
  e.activity = DeviceActivity::kConnect;
  demux.Consume(e);
  EXPECT_EQ(demux.events_routed(), 1u);
  const int feature = CertAcobeExtractor::kDevConnection;
  float in_a = 0, in_b = 0;
  for (int fr = 0; fr < demux.extractor(a).cube().frames(); ++fr) {
    in_a += demux.extractor(a).cube().At(
        demux.extractor(a).cube().UserIndex(2), feature, 0, fr);
    in_b += demux.extractor(b).cube().At(
        demux.extractor(b).cube().UserIndex(2), feature, 0, fr);
  }
  EXPECT_EQ(in_a, 1.0f);
  EXPECT_EQ(in_b, 1.0f);
}

// --- Department fan-out ----------------------------------------------------

/// The shared two-department org spooled into one file, which every
/// detection shard's feed replays whole (each shard's demux keeps only
/// its own jobs' members). Job completions are read off the
/// "detector.runs" counter, which Detector::Run bumps as it returns.
class FanOutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::EnableMetrics(true);
    LogStore& store = *SharedCertStore();
    spool_ = std::make_unique<ShardSpooler>(SpoolDir("spool_fanout"), 1,
                                            1 << 14);
    for (const LdapRecord& r : store.ldap()) spool_->AssignUser(r.user, 0);
    ReplayStore(store, *spool_);
    spool_->Finish();
    spec_.deviation.omega = 10;
    spec_.deviation.matrix_days = 10;
    spec_.ensemble.encoder_dims = {16, 8};
    spec_.ensemble.train.epochs = 2;
    spec_.ensemble.train_stride = 4;
    spec_.critic_votes = 1;
  }
  void TearDown() override { telemetry::EnableMetrics(false); }

  /// A job over department `d % 2`.
  DepartmentJob Job(std::size_t d) const {
    LogStore& store = *SharedCertStore();
    const std::string dept = store.Departments()[d % 2];
    return {dept, store.UsersInDepartment(dept), spec_};
  }

  /// Shard s holds jobs_per_shard[s] jobs, alternating departments;
  /// `on_feed(s)` runs as shard s's feed starts.
  std::vector<DetectionShard> Shards(
      const std::vector<int>& jobs_per_shard,
      std::function<void(std::size_t)> on_feed = {}) const {
    std::vector<DetectionShard> shards(jobs_per_shard.size());
    std::size_t d = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      for (int j = 0; j < jobs_per_shard[s]; ++j) {
        shards[s].jobs.push_back(Job(d++));
      }
      shards[s].feed = [this, s, on_feed](LogSink& sink) {
        if (on_feed) on_feed(s);
        spool_->Replay(0, sink);
      };
    }
    return shards;
  }

  static std::uint64_t Runs() {
    return telemetry::GetCounter("detector.runs").value();
  }

  static constexpr DetectionDays kWindow{.start = kStart, .days = kDays,
                                         .train_end = 50, .score_begin = 50,
                                         .score_end = kDays};
  std::unique_ptr<ShardSpooler> spool_;
  DetectorSpec spec_;
};

TEST_F(FanOutTest, OutputsIdenticalAtOneAndFourThreads) {
  // Three shards with jobs and an empty one between them.
  const std::vector<DetectionShard> shards = Shards({2, 0, 1, 2});
  const std::vector<DetectionOutput> serial =
      DetectDepartments(shards, kWindow, /*threads=*/1);
  const std::vector<DetectionOutput> parallel =
      DetectDepartments(shards, kWindow, /*threads=*/4);
  ASSERT_EQ(serial.size(), 5u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(serial[k].grid.Digest(), parallel[k].grid.Digest()) << k;
    EXPECT_EQ(serial[k].members, parallel[k].members) << k;
    ASSERT_EQ(serial[k].list.size(), parallel[k].list.size()) << k;
    for (std::size_t i = 0; i < serial[k].list.size(); ++i) {
      EXPECT_EQ(serial[k].list[i].user_idx, parallel[k].list[i].user_idx);
      EXPECT_EQ(serial[k].list[i].priority, parallel[k].list[i].priority);
    }
  }
  // (shard, job) order: shard 0 alternates departments 0, 1.
  EXPECT_EQ(parallel[0].members, Job(0).members);
  EXPECT_EQ(parallel[1].members, Job(1).members);
}

struct SpoolGone : std::runtime_error {
  SpoolGone() : std::runtime_error("spool gone") {}
};

TEST_F(FanOutTest, FeedFailurePropagatesAfterStartedJobsFinish) {
  std::vector<DetectionShard> shards = Shards({2, 2, 2, 2});
  shards[2].feed = [](LogSink&) { throw SpoolGone(); };
  std::vector<std::size_t> asked;
  const std::uint64_t runs_before = Runs();
  EXPECT_THROW(DetectDepartments(shards, kWindow, /*threads=*/4,
                                 [&](std::size_t k) {
                                   asked.push_back(k);
                                   return true;
                                 }),
               SpoolGone);
  // Every job that started has finished by the time the error arrives;
  // shard 0 detected before shard 2 was fed, and no job of shard 2 or
  // later started.
  EXPECT_EQ(Runs() - runs_before, asked.size());
  EXPECT_GE(asked.size(), 2u);
  EXPECT_LE(asked.size(), 4u);
}

TEST_F(FanOutTest, CheckpointMismatchInAWorkerKeepsItsType) {
  const std::string dir = SpoolDir("fanout_checkpoints");
  DepartmentJob trained = Job(0);
  trained.spec.ensemble.checkpoint_dir = dir;
  DetectDepartments({{{trained}, Shards({0})[0].feed}}, kWindow, 1);

  DepartmentJob mismatched = trained;
  mismatched.spec.ensemble.encoder_dims = {12, 6};
  mismatched.spec.ensemble.resume = true;
  std::vector<DetectionShard> shards = Shards({1});
  shards[0].jobs.push_back(mismatched);
  EXPECT_THROW(DetectDepartments(shards, kWindow, /*threads=*/4),
               CheckpointMismatch);
  std::filesystem::remove_all(dir);
}

TEST_F(FanOutTest, DecliningProceedStartsNoFurtherDepartment) {
  const std::vector<DetectionShard> shards = Shards({2, 2});
  std::vector<std::size_t> asked;
  const std::uint64_t runs_before = Runs();
  const std::vector<DetectionOutput> outputs = DetectDepartments(
      shards, kWindow, /*threads=*/4, [&](std::size_t k) {
        asked.push_back(k);
        return k != 2;
      });
  EXPECT_EQ(outputs.size(), 2u);
  EXPECT_EQ(asked, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(Runs() - runs_before, 2u);
}

TEST_F(FanOutTest, AtMostTwoShardsResident) {
  // One job per shard: a shard's cubes are alive from its feed until its
  // job completes, so at shard s's feed, s + 1 shards were fed and
  // Runs() - runs_before completed. Jobs far slower than feeds make a
  // wider window show.
  spec_.ensemble.train.epochs = 20;
  std::uint64_t runs_before = 0;
  std::vector<std::uint64_t> alive_at_feed;
  const std::vector<DetectionShard> shards =
      Shards({1, 1, 1, 1, 1}, [&](std::size_t s) {
        alive_at_feed.push_back(s + 1 - (Runs() - runs_before));
      });
  runs_before = Runs();
  EXPECT_EQ(DetectDepartments(shards, kWindow, /*threads=*/4).size(), 5u);
  ASSERT_EQ(alive_at_feed.size(), 5u);
  for (std::size_t s = 0; s < alive_at_feed.size(); ++s) {
    EXPECT_LE(alive_at_feed[s], 2u) << "at the feed of shard " << s;
  }
}

}  // namespace
}  // namespace acobe
