#pragma once

// The resident detection service.
//
// ServiceSupervisor turns the batch ACOBE pipeline into a 24/7 daemon:
// feeders drop batch directories (CERT-layout CSVs plus a READY
// marker, written last) into a watch directory; each READY batch
// becomes one *cycle*. The caller's thread parses the batch's CSVs in
// a fixed order and appends each packed event to its shard's sliding
// multi-day event window. When the batch advances the window far
// enough to expose new scorable days, every shard runs ACOBE detection
// per department (DetectDepartments, core/detector.h) as one task on
// the shared pool (ParallelFor, common/parallel.h; inline at one
// shard), feeds each department's score grid into a persistent-alert
// MonitorState (AdvanceGrid), and hands the results back to the caller,
// which commits them.
//
// Robustness properties, in the order they matter:
//
//   crash-restart bit-identity  Every cycle commits through the
//       journal protocol (service/journal.h): outputs are appended and
//       fsynced, then the journal (batch list, output offsets, monitor
//       blobs) is atomically replaced. kill -9 at any instant and the
//       restarted daemon truncates torn output tails, rebuilds the
//       event window by re-parsing journaled batches, restores the
//       monitors, and re-runs the interrupted cycle — producing the
//       same bytes it would have produced uninterrupted.
//
//   supervision  A shard whose cycle computation throws is retried
//       under a seeded BackoffPolicy; when retries exhaust, the shard
//       is quarantined — its departments drop out of the report stream
//       (a "shard_quarantined" ledger event says so) and the remaining
//       shards keep serving.
//
// Threading: the daemon owns no thread. A shard's task touches only
// that shard's window, monitors and backoff state, and the pool's join
// orders it before the caller reads the results, so the plane is
// ThreadSanitizer-clean by construction. Ingest never overlaps
// compute, so nothing sits between the parser and the windows.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/faults.h"
#include "service/cycle_stats.h"
#include "service/journal.h"

namespace acobe {

// Admission is always lossless: every parsed event reaches its shard's
// window. The enum, its parser and ServiceConfig::admission stay only
// because perfbench's per-layer trace program assigns cfg.admission;
// they go when that program is retired (ROADMAP, per-layer time
// budget).
enum class AdmissionPolicy {
  kBlock,
};

const char* ToString(AdmissionPolicy policy);
/// Parses "block"; throws std::invalid_argument otherwise.
AdmissionPolicy AdmissionPolicyFromString(const std::string& s);

struct ServiceConfig {
  std::string watch_dir;   // drop directory to scan for READY batches
  std::string out_dir;     // journal + alerts.jsonl + ledger.jsonl
  std::string roster_path; // ldap.csv defining users and departments

  // Window geometry, absolute-day based. Must satisfy
  // window_days > train_days > deviation omega.
  int window_days = 28;
  int train_days = 14;
  int omega = 7;

  // Detection knobs (mirror acobe-detect's streaming path).
  int epochs = 6;
  int votes = 2;
  int top = 10;            // investigation-list length in ledger events
  std::uint64_t seed = 1234;

  // Persistent-alert monitor (core/monitor.h).
  int top_positions = 3;
  int persistence_days = 2;
  int cooloff_days = 2;

  // Departments are hashed over this many shards (capped at the
  // number of departments); each shard is one pool task per cycle.
  int shards = 2;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;

  IngestOptions ingest;  // CSV policy for batch files (roster is strict)
};

// Point-in-time snapshots for the observability plane (/statusz).
// Built by the supervisor under a status mutex after Start() and after
// every committed cycle; readers (HTTP handlers, acobe-top) copy the
// whole struct, so a scrape never holds the detection path up.
struct ShardStatus {
  bool quarantined = false;
  std::uint32_t failures = 0;  // cumulative absorbed failures
};

struct DepartmentStatus {
  std::string name;
  std::size_t members = 0;
  std::size_t open_alerts = 0;  // persistent-alert monitor open count
};

struct ServiceStatus {
  bool ready = false;           // journal replayed, window rebuilt
  std::uint64_t cycle = 0;
  std::uint64_t alerts_total = 0;
  std::int64_t window_start = 0;  // window_end < window_start: no events
  std::int64_t window_end = -1;
  std::int64_t last_scored_day = -1;
  std::string last_batch;       // "" before the first cycle
  bool recovered = false;       // this process resumed a journal
  std::vector<ShardStatus> shards;
  std::vector<DepartmentStatus> departments;
};

class ServiceSupervisor {
 public:
  explicit ServiceSupervisor(ServiceConfig config);
  ~ServiceSupervisor();
  ServiceSupervisor(const ServiceSupervisor&) = delete;
  ServiceSupervisor& operator=(const ServiceSupervisor&) = delete;

  /// Loads the roster, recovers the journal (truncating torn output
  /// tails, restoring monitors, rebuilding the event window from
  /// already-consumed batches). Throws
  /// JournalError when the on-disk state cannot be resumed
  /// bit-identically (config fingerprint mismatch, mutated batch,
  /// corrupt journal) and IngestError/std::runtime_error for input
  /// problems.
  void Start();

  /// READY batches not yet consumed, in processing (lexicographic)
  /// order.
  std::vector<std::string> PendingBatches() const;

  /// Consumes every pending batch as one cycle each; stops early when
  /// ShutdownRequested(). Returns each cycle's record (the one
  /// cycle_stats() keeps), so the tool can narrate.
  std::vector<service::CycleStat> ProcessAvailableBatches();

  /// Appends a run_complete event (reason: "drained" | "signal").
  /// Deliberately not journaled: a later resume truncates it away, so
  /// the final ledger carries exactly one completion event.
  void Finish(const std::string& reason);

  std::uint64_t cycles() const { return state_.cycle; }
  std::uint64_t alerts_emitted() const { return state_.alerts_count; }
  int quarantined_shards() const;
  bool recovered() const { return recovered_; }
  std::size_t departments() const;

  // --- Observability surface (thread-safe; serves /readyz, /statusz
  // --- and /cycles). ---

  /// True once Start() has finished: journal replayed (window rebuilt).
  /// /readyz is 503 until then.
  bool Ready() const { return ready_.load(std::memory_order_acquire); }

  /// Copy of the latest published snapshot. Before Ready() this is a
  /// default struct with ready=false — callable from any thread at any
  /// time.
  ServiceStatus Status() const;

  /// Per-cycle time-series backing /cycles and the service.slo.*
  /// gauges. The ring is itself thread-safe.
  const service::CycleStatsRing& cycle_stats() const { return stats_; }

 private:
  struct ShardRuntime;
  struct CycleTask;
  struct ShardOutcome;
  struct DeptCycleResult;

  void LoadRoster();
  void RecoverOrInit();
  void ReplayWindow(const std::vector<BatchRecord>& batches);
  service::CycleStat RunCycle(const std::string& batch_name);
  BatchRecord ParseBatch(const std::string& batch_name, std::size_t* admitted,
                         std::size_t* dropped);
  std::vector<ShardOutcome> RunShards(const CycleTask& task);
  ShardOutcome RunShardCycle(ShardRuntime& shard, const CycleTask& task);
  std::string JournalPath() const;
  void PublishStatus();

  ServiceConfig config_;
  std::uint64_t fingerprint_ = 0;
  bool recovered_ = false;
  bool started_ = false;

  // Roster-derived, immutable after Start().
  std::unique_ptr<class ServiceDirectory> dir_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;

  JournalState state_;
  std::vector<std::string> consumed_;  // batch names, consumption order
  std::int64_t first_day_seen_ = 0;    // valid when latest_day_ >= first
  std::int64_t latest_day_ = -1;
  // department name -> latest serialized MonitorState, canonical order.
  std::vector<std::pair<std::string, std::string>> monitor_blobs_;

  std::unique_ptr<AppendLog> alerts_log_;
  std::unique_ptr<AppendLog> ledger_log_;

  // Observability plane. dept_open_alerts_ is indexed by canonical
  // department order, refreshed from shard outcomes each cycle.
  std::atomic<bool> ready_{false};
  mutable std::mutex status_mutex_;
  ServiceStatus status_;
  std::vector<std::size_t> dept_open_alerts_;
  service::CycleStatsRing stats_;
};

}  // namespace acobe
