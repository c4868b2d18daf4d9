#include "service/supervisor.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "common/date.h"
#include "common/health.h"
#include "common/ledger.h"
#include "common/parallel.h"
#include "common/record.h"
#include "common/shutdown.h"
#include "common/telemetry.h"
#include "common/timeframe.h"
#include "common/version.h"
#include "core/detector.h"
#include "core/monitor.h"
#include "logs/entity_catalog.h"
#include "logs/log_io.h"
#include "logs/spool.h"

namespace acobe {
namespace fs = std::filesystem;

namespace {

constexpr const char* kReadyMarker = "READY";

std::ifstream OpenOrThrow(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return in;
}

std::string DayString(std::int64_t day) {
  return Date::FromDayNumber(day).ToString();
}

double SpanTotalMs(const std::vector<health::SpanEdge>& edges,
                   std::string_view name) {
  double ms = 0.0;
  for (const health::SpanEdge& e : edges) {
    if (e.name == name) ms += e.total_ms;
  }
  return ms;
}

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

// Roster-derived immutable directory: the interning tables, the kept
// departments in canonical (first-seen) order, and the user -> shard
// route map. Read-only once Start() has built it; shard tasks read
// entity names from it during cycles.
class ServiceDirectory {
 public:
  EntityCatalog tables;
  struct Dept {
    std::string name;
    std::size_t order = 0;  // canonical index among *kept* departments
    std::vector<UserId> members;
  };
  std::vector<Dept> depts;         // canonical order
  std::vector<int> user_shard;     // UserId -> shard, -1 unrouted
  std::uint32_t roster_crc = 0;
};

struct ServiceSupervisor::CycleTask {
  std::int64_t win_start = 0;
  std::int64_t win_end = -1;   // win_end < win_start: nothing ingested yet
  std::int64_t scored_from = 0;
  std::int64_t scored_to = -1;  // scored_to < scored_from: ingest-only
};

struct ServiceSupervisor::DeptCycleResult {
  const ServiceDirectory::Dept* dept = nullptr;
  DetectionOutput det;
  std::vector<Alert> alerts;  // closed this cycle, close order
};

struct ServiceSupervisor::ShardOutcome {
  bool quarantined = false;      // state after this cycle
  bool quarantined_now = false;  // transitioned during this cycle
  std::uint32_t failures = 0;    // cumulative absorbed failures
  std::string error;
  std::vector<DeptCycleResult> depts;
  // (canonical dept order, monitor open-alert count) for every
  // department this shard owns; feeds the /statusz snapshot.
  std::vector<std::pair<std::size_t, std::size_t>> open_alerts;
  // Updated monitor blobs for this shard's departments (only present
  // on scored cycles; monitors are untouched otherwise).
  std::vector<std::pair<std::string, std::string>> monitors;
};

// One shard's state. The caller appends to `window` while parsing; the
// shard's pool task owns all of it during RunShards.
struct ServiceSupervisor::ShardRuntime {
  struct DeptRuntime {
    const ServiceDirectory::Dept* dept = nullptr;
    MonitorState monitor;
  };
  std::vector<DeptRuntime> depts;
  std::vector<PackedEvent> window;  // sliding event window, day-sorted lazily
  bool quarantined = false;
  std::uint32_t failures = 0;
};

namespace {

// LogSink that packs each event and appends it to its user's shard
// window; tracks the batch's day range and admission counts.
class ShardRouter : public LogSink {
 public:
  ShardRouter(const std::vector<int>& user_shard,
              std::vector<std::vector<PackedEvent>*> windows)
      : user_shard_(user_shard), windows_(std::move(windows)) {}

  void Consume(const LogonEvent& e) override { Route(e); }
  void Consume(const DeviceEvent& e) override { Route(e); }
  void Consume(const FileEvent& e) override { Route(e); }
  void Consume(const HttpEvent& e) override { Route(e); }
  void Consume(const EmailEvent& e) override { Route(e); }
  void Consume(const EnterpriseEvent& e) override { Route(e); }
  void Consume(const ProxyEvent& e) override { Route(e); }

  std::size_t admitted() const { return admitted_; }
  std::size_t dropped() const { return dropped_; }
  std::int64_t day_lo() const { return day_lo_; }
  std::int64_t day_hi() const { return day_hi_; }

 private:
  template <typename Event>
  void Route(const Event& e) {
    const int shard =
        e.user < user_shard_.size() ? user_shard_[e.user] : -1;
    if (shard < 0) {
      ++dropped_;
      return;
    }
    const PackedEvent p = PackEvent(e);
    const std::int64_t day = DayOf(p.ts);
    day_lo_ = std::min(day_lo_, day);
    day_hi_ = std::max(day_hi_, day);
    windows_[static_cast<std::size_t>(shard)]->push_back(p);
    ++admitted_;
  }

  const std::vector<int>& user_shard_;
  std::vector<std::vector<PackedEvent>*> windows_;
  std::size_t admitted_ = 0;
  std::size_t dropped_ = 0;
  std::int64_t day_lo_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t day_hi_ = std::numeric_limits<std::int64_t>::min();
};

}  // namespace

ServiceSupervisor::ServiceSupervisor(ServiceConfig config)
    : config_(std::move(config)) {
  if (config_.window_days <= config_.train_days ||
      config_.train_days <= config_.omega || config_.omega < 2) {
    throw std::invalid_argument(
        "service config requires window_days > train_days > omega >= 2");
  }
  if (config_.shards < 1) config_.shards = 1;
}

ServiceSupervisor::~ServiceSupervisor() = default;

const char* ToString(AdmissionPolicy) { return "block"; }

AdmissionPolicy AdmissionPolicyFromString(const std::string& s) {
  if (s == "block") return AdmissionPolicy::kBlock;
  throw std::invalid_argument("unknown admission policy '" + s +
                              "' (only block is supported)");
}

std::string ServiceSupervisor::JournalPath() const {
  return (fs::path(config_.out_dir) / "service.journal").string();
}

int ServiceSupervisor::quarantined_shards() const {
  int n = 0;
  for (const ShardRecord& s : state_.shards) n += s.quarantined ? 1 : 0;
  return n;
}

std::size_t ServiceSupervisor::departments() const {
  return dir_ ? dir_->depts.size() : 0;
}

void ServiceSupervisor::LoadRoster() {
  auto d = std::make_unique<ServiceDirectory>();
  {
    std::ifstream in = OpenOrThrow(config_.roster_path);
    IngestOptions strict = config_.ingest;
    strict.policy = IngestPolicy::kStrict;  // a bad roster is fatal
    d->roster_crc =
        ReadLdapCsv(in, d->tables, strict, config_.roster_path).bytes_crc;
  }

  for (const std::string& name : d->tables.Departments()) {
    std::vector<UserId> members = d->tables.UsersInDepartment(name);
    if (members.size() < kMinDepartmentUsers) continue;
    ServiceDirectory::Dept dept;
    dept.name = name;
    dept.order = d->depts.size();
    dept.members = std::move(members);
    d->depts.push_back(std::move(dept));
  }
  if (d->depts.empty()) {
    throw std::runtime_error("roster " + config_.roster_path +
                             " yields no department with >= " +
                             std::to_string(kMinDepartmentUsers) +
                             " members");
  }
  config_.shards = std::min<int>(config_.shards,
                                 static_cast<int>(d->depts.size()));

  // Route users to the shard of their department (a user with several
  // memberships follows the roster's last record, matching the batch
  // tool's streaming path; demux replication covers multi-membership
  // within one shard).
  std::unordered_map<std::string_view, int> dept_shard;  // kept depts only
  for (const auto& dept : d->depts) {
    dept_shard.emplace(dept.name,
                       static_cast<int>(dept.order) % config_.shards);
  }
  d->user_shard.assign(d->tables.users().size(), -1);
  for (const LdapRecord& r : d->tables.ldap()) {
    const auto it = dept_shard.find(r.department);
    if (it != dept_shard.end()) d->user_shard[r.user] = it->second;
  }
  dir_ = std::move(d);

  // Shard runtimes + department assignment.
  shards_.clear();
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<ShardRuntime>());
  }
  MonitorConfig mc;
  mc.n_votes = config_.votes;
  mc.top_positions = config_.top_positions;
  mc.persistence_days = config_.persistence_days;
  mc.cooloff_days = config_.cooloff_days;
  for (const auto& dept : dir_->depts) {
    ShardRuntime::DeptRuntime rt;
    rt.dept = &dept;
    rt.monitor = MonitorState(mc);
    shards_[dept.order % shards_.size()]->depts.push_back(std::move(rt));
  }

  // Config fingerprint: every knob that shapes the output stream.
  std::ostringstream fp;
  fp << "acobe-serve.v1;w=" << config_.window_days
     << ";t=" << config_.train_days << ";omega=" << config_.omega
     << ";epochs=" << config_.epochs << ";votes=" << config_.votes
     << ";top=" << config_.top << ";pos=" << config_.top_positions
     << ";persist=" << config_.persistence_days
     << ";cooloff=" << config_.cooloff_days
     << ";min=" << kMinDepartmentUsers << ";seed=" << config_.seed
     << ";shards=" << config_.shards
     << ";admission=" << ToString(config_.admission)
     << ";roster=" << dir_->roster_crc;
  fingerprint_ = Crc32(fp.str());
}

void ServiceSupervisor::RecoverOrInit() {
  const std::string jpath = JournalPath();
  std::optional<JournalState> j = LoadJournal(jpath);
  recovered_ = j.has_value();

  if (j) {
    if (j->config_fingerprint != fingerprint_) {
      throw JournalError(
          "journal " + jpath +
          " was written under different detection settings (fingerprint " +
          std::to_string(j->config_fingerprint) + " vs " +
          std::to_string(fingerprint_) +
          "); refusing to resume non-identically. Point --out at a fresh "
          "directory or restore the original flags.");
    }
    if (j->shards.size() != static_cast<std::size_t>(config_.shards)) {
      throw JournalError("journal shard count mismatch");
    }
    state_ = *j;
    first_day_seen_ = 0;
    latest_day_ = -1;
    for (const BatchRecord& b : state_.batches) {
      consumed_.push_back(b.name);
      if (b.day_hi < b.day_lo) continue;
      if (latest_day_ < first_day_seen_) {
        first_day_seen_ = b.day_lo;
        latest_day_ = b.day_hi;
      } else {
        first_day_seen_ = std::min(first_day_seen_, b.day_lo);
        latest_day_ = std::max(latest_day_, b.day_hi);
      }
    }
    // Restore monitors + shard supervision state.
    monitor_blobs_ = state_.monitors;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->quarantined = state_.shards[i].quarantined;
      shards_[i]->failures = state_.shards[i].failures;
      for (auto& rt : shards_[i]->depts) {
        for (const auto& [name, blob] : monitor_blobs_) {
          if (name == rt.dept->name) {
            std::istringstream in(blob);
            try {
              rt.monitor = MonitorState::Load(in);
            } catch (const RecordError& e) {
              throw JournalError("journal " + jpath + ", department " + name +
                                 ": " + e.what());
            }
            break;
          }
        }
      }
    }
  } else {
    state_ = JournalState{};
    state_.config_fingerprint = fingerprint_;
    state_.shards.resize(static_cast<std::size_t>(config_.shards));
  }

  // Remove stale WriteFileAtomic temporaries from a crash mid-replace.
  for (const auto& entry : fs::directory_iterator(config_.out_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
    }
  }

  // Open the output streams at their durable prefixes (truncating any
  // torn tail from a crash mid-append).
  const std::string alerts_path =
      (fs::path(config_.out_dir) / "alerts.jsonl").string();
  const std::string ledger_path =
      (fs::path(config_.out_dir) / "ledger.jsonl").string();
  alerts_log_ = std::make_unique<AppendLog>(alerts_path, state_.alerts_bytes);
  ledger_log_ = std::make_unique<AppendLog>(ledger_path, state_.ledger_bytes);

  if (!recovered_) {
    // Fresh start: the manifest is the first committed ledger line.
    LedgerEvent manifest = MakeManifestEvent("acobe-serve", GetBuildInfo());
    manifest.Int("shards", config_.shards)
        .Int("window_days", config_.window_days)
        .Int("train_days", config_.train_days)
        .Str("admission", ToString(config_.admission));
    ledger_log_->Append(manifest.Finish());
    ledger_log_->Sync();
    state_.ledger_bytes = ledger_log_->bytes();
    SaveJournal(JournalPath(), state_);
  }
}

void ServiceSupervisor::Start() {
  if (started_) throw std::logic_error("ServiceSupervisor::Start called twice");
  fs::create_directories(config_.out_dir);
  if (!fs::is_directory(config_.watch_dir)) {
    throw std::runtime_error("watch directory " + config_.watch_dir +
                             " does not exist");
  }
  LoadRoster();
  RecoverOrInit();
  // Registered at 0 so every heartbeat carries them, even from a
  // process that finds nothing pending and runs no cycle.
  ACOBE_COUNT("service.cycles", 0);
  ACOBE_COUNT("service.batches", 0);

  // Seed the open-alert counts from the (possibly restored) monitors.
  dept_open_alerts_.assign(dir_->depts.size(), 0);
  for (const auto& shard : shards_) {
    for (const auto& rt : shard->depts) {
      dept_open_alerts_[rt.dept->order] = rt.monitor.OpenAlerts().size();
    }
  }
  started_ = true;

  if (recovered_ && latest_day_ >= first_day_seen_) {
    ReplayWindow(state_.batches);
  }

  // Readiness flips only now: journal recovered, window replayed.
  // /readyz turns 200 at this instant.
  PublishStatus();
  ready_.store(true, std::memory_order_release);
}

void ServiceSupervisor::ReplayWindow(const std::vector<BatchRecord>& batches) {
  // Rebuild the in-memory sliding window by re-parsing every consumed
  // batch that still overlaps it. Entity ids re-intern in a different
  // global order than the original run, but features depend only on
  // id *equality* within one window rebuild, so the cubes — and with
  // them the resumed output bytes — are unaffected.
  health::SetStage("replay");
  CycleTask task;
  task.win_end = latest_day_;
  task.win_start =
      std::max(first_day_seen_, latest_day_ - config_.window_days + 1);

  for (const BatchRecord& b : batches) {
    if (b.day_hi < b.day_lo || b.day_hi < task.win_start) continue;
    health::SetStageDetail(b.name);
    std::size_t admitted = 0, dropped = 0;
    BatchRecord reread = ParseBatch(b.name, &admitted, &dropped);
    if (reread.digest != b.digest) {
      throw JournalError(
          "batch " + b.name + " changed since it was consumed (digest " +
          std::to_string(reread.digest) + " vs journaled " +
          std::to_string(b.digest) +
          "); batches must stay immutable for bit-identical resume");
    }
    ACOBE_COUNT("service.replayed_batches", 1);
  }
  RunShards(task);  // ingest-only: scored_to < scored_from
}

std::vector<std::string> ServiceSupervisor::PendingBatches() const {
  std::set<std::string> done(consumed_.begin(), consumed_.end());
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(config_.watch_dir)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (done.count(name)) continue;
    if (!fs::exists(entry.path() / kReadyMarker)) continue;
    out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<service::CycleStat> ServiceSupervisor::ProcessAvailableBatches() {
  std::vector<service::CycleStat> reports;
  for (const std::string& name : PendingBatches()) {
    if (ShutdownRequested()) break;
    reports.push_back(RunCycle(name));
  }
  return reports;
}

BatchRecord ServiceSupervisor::ParseBatch(const std::string& batch_name,
                                          std::size_t* admitted,
                                          std::size_t* dropped) {
  const fs::path dir = fs::path(config_.watch_dir) / batch_name;
  std::vector<std::vector<PackedEvent>*> windows;
  windows.reserve(shards_.size());
  for (auto& s : shards_) windows.push_back(&s->window);
  ShardRouter router(dir_->user_shard, std::move(windows));
  // The batch digest is the CRC-32 of the files concatenated in
  // kCertEventCsvs order, folded from the CRCs the readers take as they
  // parse.
  std::uint32_t crc = 0;
  for (const CertEventCsv& csv : kCertEventCsvs) {
    const fs::path p = dir / csv.name;
    if (!fs::exists(p)) continue;
    std::ifstream in = OpenOrThrow(p.string());
    const IngestStats stats = csv.read(in, dir_->tables, router,
                                       config_.ingest,
                                       batch_name + "/" + csv.name);
    crc = Crc32Combine(crc, stats.bytes_crc, stats.bytes_read);
  }
  BatchRecord rec;
  rec.name = batch_name;
  rec.digest = crc;
  if (router.day_hi() >= router.day_lo()) {
    rec.day_lo = router.day_lo();
    rec.day_hi = router.day_hi();
  } else {
    rec.day_lo = 0;
    rec.day_hi = -1;
  }
  *admitted = router.admitted();
  *dropped = router.dropped();
  return rec;
}

std::vector<ServiceSupervisor::ShardOutcome> ServiceSupervisor::RunShards(
    const CycleTask& task) {
  // One pool task per shard (inline at one shard). Each task owns its
  // shard and its slot of `outs`; the join orders both before the
  // caller reads them.
  std::vector<ShardOutcome> outs(shards_.size());
  const int n = static_cast<int>(shards_.size());
  ParallelFor(0, n, n, [&](int i) {
    ShardRuntime& shard = *shards_[static_cast<std::size_t>(i)];
    ShardOutcome& out = outs[static_cast<std::size_t>(i)];
    try {
      out = RunShardCycle(shard, task);
    } catch (const std::exception& e) {
      // Detection is deterministic and reads only the in-memory window,
      // so a retry would throw again: quarantine the shard on its first
      // failure rather than killing the process.
      shard.quarantined = true;
      out = ShardOutcome{};
      out.quarantined = true;
      out.quarantined_now = true;
      out.failures = ++shard.failures;
      out.error = e.what();
    }
  });
  return outs;
}

service::CycleStat ServiceSupervisor::RunCycle(const std::string& batch_name) {
  health::SetStage("ingest");
  health::SetStageDetail(batch_name);

  const auto cycle_t0 = std::chrono::steady_clock::now();
  // READY-marker mtime anchors the batch-to-alert latency SLO: the
  // marker is written last by the feeder, so its age is how long the
  // batch sat in the drop directory plus everything we do with it.
  bool have_ready_mtime = false;
  fs::file_time_type ready_mtime{};
  double batch_age_s = -1.0;
  {
    std::error_code ec;
    ready_mtime = fs::last_write_time(
        fs::path(config_.watch_dir) / batch_name / kReadyMarker, ec);
    if (!ec) {
      have_ready_mtime = true;
      batch_age_s = std::chrono::duration<double>(
                        fs::file_time_type::clock::now() - ready_mtime)
                        .count();
    }
  }

  service::CycleStat cs;
  cs.batch = batch_name;
  BatchRecord rec = ParseBatch(batch_name, &cs.events_admitted,
                               &cs.events_dropped);
  ACOBE_COUNT("service.batches", 1);
  ACOBE_COUNT("service.events_admitted",
              static_cast<std::uint64_t>(cs.events_admitted));

  if (rec.day_hi >= rec.day_lo) {
    if (latest_day_ < first_day_seen_) {
      first_day_seen_ = rec.day_lo;
      latest_day_ = rec.day_hi;
    } else {
      first_day_seen_ = std::min(first_day_seen_, rec.day_lo);
      latest_day_ = std::max(latest_day_, rec.day_hi);
    }
  }

  CycleTask task;
  if (latest_day_ >= first_day_seen_) {
    task.win_end = latest_day_;
    task.win_start =
        std::max(first_day_seen_, latest_day_ - config_.window_days + 1);
    const std::int64_t scorable_from = task.win_start + config_.train_days;
    task.scored_from = std::max(state_.last_scored_day + 1, scorable_from);
    task.scored_to = task.win_end;
  }
  cs.window_start = task.win_start;
  cs.window_end = task.win_end;
  cs.scored_from = task.scored_from;
  cs.scored_to = task.scored_to;

  const auto t_ingest_done = std::chrono::steady_clock::now();
  // train_s/score_s are span-profile deltas around the detect phase:
  // thread-seconds summed over the shards running at once, not wall
  // time (zero when metrics are off — spans don't record then).
  const std::vector<health::SpanEdge> spans_before = health::SpanProfile();

  health::SetStage("detect");
  std::vector<ShardOutcome> outs = RunShards(task);

  const auto t_detect_done = std::chrono::steady_clock::now();
  const std::vector<health::SpanEdge> spans_after = health::SpanProfile();

  health::SetStage("commit");
  state_.cycle += 1;
  cs.cycle = state_.cycle;

  // Merge per-shard results into canonical department order.
  std::vector<const DeptCycleResult*> scored;
  for (const ShardOutcome& o : outs) {
    for (const DeptCycleResult& d : o.depts) scored.push_back(&d);
  }
  std::sort(scored.begin(), scored.end(),
            [](const DeptCycleResult* a, const DeptCycleResult* b) {
              return a->dept->order < b->dept->order;
            });
  cs.departments_scored = scored.size();

  // Alerts first: their global sequence numbers are journaled.
  auto member_name = [&](const DeptCycleResult* d, int member) {
    return dir_->tables.users().NameOf(
        d->dept->members[static_cast<std::size_t>(member)]);
  };
  for (const DeptCycleResult* d : scored) {
    for (const Alert& a : d->alerts) {
      state_.alerts_count += 1;
      LedgerEvent ev("alert");
      ev.Int("seq", static_cast<std::int64_t>(state_.alerts_count))
          .Int("cycle", static_cast<std::int64_t>(state_.cycle))
          .Str("department", d->dept->name)
          .Str("user", member_name(d, a.user_idx))
          .Str("first_day", DayString(a.first_day))
          .Str("last_day", DayString(a.last_day))
          .Int("firing_days", a.firing_days)
          .Str("peak_day", DayString(a.peak_day))
          .Str("peak_aspect", a.peak_aspect_name)
          .Num("peak_score", a.peak_score);
      alerts_log_->Append(ev.Finish());
      cs.alerts += 1;
      ACOBE_COUNT("service.alerts_emitted", 1);
    }
  }

  // Ledger: one cycle event, then detection events in canonical order,
  // then any quarantine transitions.
  {
    LedgerEvent ev("cycle");
    ev.Int("cycle", static_cast<std::int64_t>(state_.cycle))
        .Str("batch", batch_name)
        .Int("batch_digest", rec.digest)
        .Int("events_admitted", static_cast<std::int64_t>(cs.events_admitted))
        .Int("events_dropped", static_cast<std::int64_t>(cs.events_dropped));
    if (task.win_end >= task.win_start) {
      ev.Str("window_start", DayString(task.win_start))
          .Str("window_end", DayString(task.win_end));
    }
    if (task.scored_to >= task.scored_from) {
      ev.Str("scored_from", DayString(task.scored_from))
          .Str("scored_to", DayString(task.scored_to));
    }
    ev.Int("departments_scored",
           static_cast<std::int64_t>(cs.departments_scored))
        .Int("alerts", static_cast<std::int64_t>(cs.alerts));
    ledger_log_->Append(ev.Finish());
  }
  for (const DeptCycleResult* d : scored) {
    LedgerEvent ev("detection");
    ev.Int("cycle", static_cast<std::int64_t>(state_.cycle))
        .Str("department", d->dept->name)
        .Int("members", static_cast<std::int64_t>(d->dept->members.size()))
        .Int("score_digest", d->det.grid.Digest());
    if (!d->det.degraded_aspects.empty()) {
      ev.StrList("degraded_aspects", d->det.degraded_aspects);
    }
    // Investigation list: the top config.top users and their priority.
    std::vector<std::string> users;
    std::vector<double> priorities;
    const std::size_t top_n = std::min<std::size_t>(
        d->det.list.size(), static_cast<std::size_t>(config_.top));
    for (std::size_t i = 0; i < top_n; ++i) {
      users.push_back(member_name(d, d->det.list[i].user_idx));
      priorities.push_back(d->det.list[i].priority);
    }
    ev.StrList("list", users).NumList("priority", priorities);
    ledger_log_->Append(ev.Finish());
  }
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (!outs[i].quarantined_now) continue;
    LedgerEvent ev("shard_quarantined");
    ev.Int("cycle", static_cast<std::int64_t>(state_.cycle))
        .Int("shard", static_cast<std::int64_t>(i))
        .Int("failures", outs[i].failures)
        .Str("error", outs[i].error);
    ledger_log_->Append(ev.Finish());
    ACOBE_COUNT("service.shards_quarantined", 1);
  }

  // Fold updated monitor state + supervision records into the journal.
  for (const ShardOutcome& o : outs) {
    for (const auto& [name, blob] : o.monitors) {
      bool found = false;
      for (auto& [have, slot] : monitor_blobs_) {
        if (have == name) {
          slot = blob;
          found = true;
          break;
        }
      }
      if (!found) monitor_blobs_.emplace_back(name, blob);
    }
  }
  for (std::size_t i = 0; i < outs.size(); ++i) {
    state_.shards[i].quarantined = outs[i].quarantined;
    state_.shards[i].failures = outs[i].failures;
  }
  if (task.scored_to >= task.scored_from) {
    state_.last_scored_day = std::max(state_.last_scored_day, task.scored_to);
  }
  state_.batches.push_back(rec);
  consumed_.push_back(batch_name);
  state_.monitors = monitor_blobs_;

  // Commit point: outputs durable first, then the journal names them.
  alerts_log_->Sync();
  ledger_log_->Sync();
  state_.alerts_bytes = alerts_log_->bytes();
  state_.ledger_bytes = ledger_log_->bytes();
  SaveJournal(JournalPath(), state_);
  ACOBE_COUNT("service.cycles", 1);

  // --- Observability plane: record the cycle, refresh snapshots. None
  // --- of this feeds back into detection state.
  for (const ShardOutcome& o : outs) {
    for (const auto& [order, count] : o.open_alerts) {
      if (order < dept_open_alerts_.size()) dept_open_alerts_[order] = count;
    }
  }
  const auto t_end = std::chrono::steady_clock::now();
  cs.ingest_s = SecondsBetween(cycle_t0, t_ingest_done);
  cs.detect_s = SecondsBetween(t_ingest_done, t_detect_done);
  cs.train_s = (SpanTotalMs(spans_after, "detector.train") -
                SpanTotalMs(spans_before, "detector.train")) /
               1000.0;
  cs.score_s = (SpanTotalMs(spans_after, "detector.score") -
                SpanTotalMs(spans_before, "detector.score")) /
               1000.0;
  cs.commit_s = SecondsBetween(t_detect_done, t_end);
  cs.total_s = SecondsBetween(cycle_t0, t_end);
  cs.batch_age_s = batch_age_s;
  if (cs.alerts > 0 && have_ready_mtime) {
    cs.alert_latency_s = std::chrono::duration<double>(
                             fs::file_time_type::clock::now() - ready_mtime)
                             .count();
  }
  stats_.Record(cs);
  stats_.ExportSloGauges();
  PublishStatus();
  return cs;
}

void ServiceSupervisor::Finish(const std::string& reason) {
  if (!ledger_log_) return;
  LedgerEvent ev("run_complete");
  ev.Str("tool", "acobe-serve")
      .Str("reason", reason)
      .Int("cycles", static_cast<std::int64_t>(state_.cycle))
      .Int("alerts", static_cast<std::int64_t>(state_.alerts_count))
      .Int("departments", static_cast<std::int64_t>(departments()));
  ledger_log_->Append(ev.Finish());
  ledger_log_->Sync();
  // Deliberately not journaled: a subsequent resume truncates this
  // line away, so the stream ends with exactly one completion event.
}

ServiceSupervisor::ShardOutcome ServiceSupervisor::RunShardCycle(
    ShardRuntime& shard, const CycleTask& task) {
  ShardOutcome out;
  out.quarantined = shard.quarantined;
  out.failures = shard.failures;
  const auto report_open_alerts = [&] {
    out.open_alerts.clear();
    for (const auto& rt : shard.depts) {
      out.open_alerts.emplace_back(rt.dept->order,
                                   rt.monitor.OpenAlerts().size());
    }
  };

  if (shard.quarantined) {
    // The router still appends this shard's events; drop them and
    // compute nothing.
    shard.window.clear();
    report_open_alerts();
    return out;
  }

  // The batch is already in the window; drop what slid out of it.
  if (task.win_end >= task.win_start) {
    shard.window.erase(
        std::remove_if(shard.window.begin(), shard.window.end(),
                       [&](const PackedEvent& e) {
                         return DayOf(e.ts) < task.win_start;
                       }),
        shard.window.end());
  }
  ACOBE_GAUGE_MAX("service.window_events", shard.window.size());

  if (task.scored_to < task.scored_from) {  // ingest-only
    report_open_alerts();
    return out;
  }

  DetectorSpec spec = AcobeSpec(config_.omega, config_.epochs, config_.votes);
  spec.name = "acobe-serve";
  spec.ensemble.seed = config_.seed;
  spec.ensemble.threads = 1;  // per-shard determinism
  // One detection shard, run serially inside this shard's task.
  std::vector<DetectionShard> one_shard(1);
  for (const auto& rt : shard.depts) {
    one_shard[0].jobs.push_back({rt.dept->name, rt.dept->members, spec});
  }
  one_shard[0].feed = [&](LogSink& sink) {
    SortByDay(shard.window);
    for (const PackedEvent& e : shard.window) DeliverPacked(e, sink);
  };
  const int win_len = static_cast<int>(task.win_end - task.win_start + 1);
  const DetectionDays days{
      .start = Date::FromDayNumber(task.win_start), .days = win_len,
      .train_end = config_.train_days,
      .score_begin = static_cast<int>(task.scored_from - task.win_start),
      .score_end = win_len};  // scored_to is always win_end
  std::vector<DetectionOutput> computed =
      DetectDepartments(one_shard, days, /*threads=*/1);

  // Commit phase: feed the monitors the scored days and collect closures.
  for (std::size_t j = 0; j < computed.size(); ++j) {
    DeptCycleResult& res = out.depts.emplace_back(
        DeptCycleResult{shard.depts[j].dept, std::move(computed[j]), {}});
    shard.depts[j].monitor.AdvanceGrid(
        res.det.grid, static_cast<int>(task.win_start), &res.alerts);
  }
  // Serialize every monitor this shard owns (cheap; keeps the journal
  // complete even for departments that closed nothing today).
  for (auto& rt : shard.depts) {
    std::ostringstream os;
    rt.monitor.Save(os);
    out.monitors.emplace_back(rt.dept->name, std::move(os).str());
  }
  report_open_alerts();
  return out;
}

ServiceStatus ServiceSupervisor::Status() const {
  std::lock_guard<std::mutex> lock(status_mutex_);
  ServiceStatus st = status_;
  st.ready = Ready();
  return st;
}

void ServiceSupervisor::PublishStatus() {
  ServiceStatus st;
  st.ready = true;  // Status() overrides from the ready_ flag
  st.cycle = state_.cycle;
  st.alerts_total = state_.alerts_count;
  st.last_scored_day = state_.last_scored_day;
  st.recovered = recovered_;
  st.last_batch = consumed_.empty() ? "" : consumed_.back();
  if (latest_day_ >= first_day_seen_) {
    st.window_end = latest_day_;
    st.window_start =
        std::max(first_day_seen_, latest_day_ - config_.window_days + 1);
  }
  st.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardStatus s;
    s.quarantined = state_.shards[i].quarantined;
    s.failures = state_.shards[i].failures;
    st.shards.push_back(s);
  }
  st.departments.reserve(dir_->depts.size());
  for (const auto& dept : dir_->depts) {
    DepartmentStatus d;
    d.name = dept.name;
    d.members = dept.members.size();
    d.open_alerts =
        dept.order < dept_open_alerts_.size() ? dept_open_alerts_[dept.order]
                                              : 0;
    st.departments.push_back(std::move(d));
  }
  std::lock_guard<std::mutex> lock(status_mutex_);
  status_ = std::move(st);
}

}  // namespace acobe
