#pragma once

// Per-cycle time-series for the resident daemon: a fixed-size
// in-process ring of CycleStat records, one per completed supervisor
// cycle. Backs the /cycles observability endpoint and the
// service.slo.* gauges (nearest-rank p50/p95 of batch-to-alert latency
// and cycle wall time). Recording is O(1) and happens once per cycle
// on the supervisor's main thread; readers (HTTP handlers) snapshot
// under the same mutex, so a scrape never blocks detection for longer
// than a memcpy of a few hundred small structs.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace acobe::service {

struct CycleStat {
  std::uint64_t cycle = 0;        // 1-based supervisor cycle number
  std::string batch;              // batch directory name ("" = none)
  // Absolute day numbers, both spans inclusive.
  std::int64_t window_start = 0;  // current window span
  std::int64_t window_end = -1;   // window_end < window_start: no events yet
  std::int64_t scored_from = 0;   // scored day range this cycle
  std::int64_t scored_to = -1;    // scored_to < scored_from: ingest-only
  std::size_t events_admitted = 0;  // rows routed to shard windows
  std::size_t events_dropped = 0;   // users outside the roster's departments
  std::size_t departments_scored = 0;
  std::size_t alerts = 0;           // alerts appended this cycle
  // Wall-clock buckets (seconds), timed on the supervisor's thread from
  // consecutive clock reads: ingest_s + detect_s + commit_s == total_s
  // up to rounding.
  double ingest_s = 0.0;
  double detect_s = 0.0;  // pooled shard compute, first task to last join
  double commit_s = 0.0;
  double total_s = 0.0;
  // Thread-seconds inside detect_s, summed over shards that run at
  // once (span-profile deltas; 0 when metrics are disabled). They can
  // exceed detect_s and are not part of the wall-clock sum.
  double train_s = 0.0;
  double score_s = 0.0;
  // Age of the batch READY marker when ingestion started; -1 when no
  // batch was consumed this cycle.
  double batch_age_s = -1.0;
  // READY-marker mtime -> alert append latency; -1 when the cycle
  // produced no alerts (or consumed no batch).
  double alert_latency_s = -1.0;
};

/// Fixed-capacity ring of the most recent CycleStats. Thread-safe.
class CycleStatsRing {
 public:
  explicit CycleStatsRing(std::size_t capacity = 512);

  void Record(const CycleStat& stat);

  /// Up to `n` most recent records, oldest first.
  std::vector<CycleStat> Recent(std::size_t n) const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Total records ever recorded (not capped by capacity).
  std::uint64_t total_recorded() const;

  struct Rollup {
    std::size_t count = 0;  // samples the percentiles are over
    double p50 = 0.0;
    double p95 = 0.0;
    double max = 0.0;
  };

  /// Nearest-rank percentiles over alert_latency_s of retained records
  /// (cycles with no alert, latency < 0, are excluded).
  Rollup AlertLatency() const;
  /// Nearest-rank percentiles over total_s of retained records.
  Rollup CycleWall() const;

  /// Publishes service.slo.* gauges (alert_latency_p50_s/p95_s,
  /// cycle_wall_p50_s/p95_s, cycles_observed) into the telemetry
  /// registry. No-op when metrics are disabled.
  void ExportSloGauges() const;

 private:
  std::vector<CycleStat> SnapshotLocked() const;  // requires mutex_

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<CycleStat> ring_;   // ring_[total_ % capacity_] is next slot
  std::uint64_t total_ = 0;
};

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample set.
/// Returns 0 for an empty set. Exposed for tests.
double NearestRank(std::vector<double> values, double q);

}  // namespace acobe::service
