#pragma once

// Process-wide observability for the detection pipeline.
//
// A metrics registry (counters, gauges, histograms with nearest-rank
// p50/p95/p99, append-only series) plus buffered trace events, exported
// three ways:
//   - WriteReport()       human-readable end-of-run summary,
//   - WriteMetricsJson()  machine-readable metrics (BENCH_*.json input),
//   - WriteTraceJson()    chrome://tracing / Perfetto "traceEvents".
//
// Concurrency contract: every recording entry point is safe from any
// thread, including inside ParallelFor workers. Counters and gauges are
// single relaxed atomics; histogram samples and trace events go to
// lock-striped buffers (stripe = thread id modulo stripe count, so
// concurrent recorders almost never share a lock) and are merged only
// at flush/snapshot time. Recording never touches pipeline state, so
// results are bit-identical with telemetry on or off (pinned by
// tests/telemetry_test.cpp).
//
// Cost contract: everything is gated on two process-wide flags, both
// default-off. Disabled-at-runtime cost is one relaxed atomic load per
// instrumentation point.
//
// Registered metric objects are never destroyed (the registry leaks by
// design); references returned by GetCounter()/GetGauge()/... stay
// valid for the process lifetime, which lets call sites cache them in
// function-local statics. ResetTelemetry() zeroes values in place.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace acobe::telemetry {

/// True after EnableMetrics(true): counters/gauges/histograms/series
/// record, and spans feed the "span.<name>" duration histograms.
bool MetricsEnabled();
/// True after EnableTracing(true): spans additionally emit trace events
/// (one per span instance, attributed to the recording thread).
bool TracingEnabled();

void EnableMetrics(bool on);
void EnableTracing(bool on);

/// Monotonically increasing event count (relaxed atomic).
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar with an atomic running-max variant.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if `v` is larger (CAS loop).
  void SetMax(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Sample distribution. Count, sum, min and max are exact at any count.
/// Order statistics are computed at snapshot time via nearest-rank over
/// at most kMaxSamples retained samples, so a resident process (which
/// records forever) holds bounded memory: up to the cap every sample is
/// kept and the quantiles are exact; past it each stripe keeps a
/// uniform reservoir of what it recorded, weighted by its count.
class Histogram {
 public:
  static constexpr std::size_t kMaxSamples = 8192;

  struct Stats {
    std::uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0, mean = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    std::size_t retained = 0;  // samples behind the quantiles
  };

  void Record(double v);
  /// Merges every stripe (a copy; recording continues).
  Stats Snapshot() const;
  void Reset();

 private:
  static constexpr int kStripes = 16;
  struct Stripe {
    mutable std::mutex mutex;
    std::uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
    std::vector<double> samples;
  };
  Stripe stripes_[kStripes];
  std::atomic<std::size_t> retained_{0};  // admissions, all stripes
};

/// Append-only value sequence (e.g. per-epoch training loss); appends
/// from different threads target different Series objects in practice,
/// but a mutex keeps any interleaving safe.
class Series {
 public:
  void Append(double v);
  std::vector<double> Values() const;
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;
};

/// Lazily creates (and forever retains) the named metric.
Counter& GetCounter(std::string_view name);
Gauge& GetGauge(std::string_view name);
Histogram& GetHistogram(std::string_view name);
Series& GetSeries(std::string_view name);

/// Zeroes every registered metric in place and drops buffered trace
/// events and thread names. References previously returned by the
/// getters remain valid.
void ResetTelemetry();

/// Point-in-time copy of every registered counter and gauge, sorted by
/// name. This is the programmatic export the health plane's heartbeat
/// sampler diffs between ticks; histograms are deliberately excluded
/// (merging every sample buffer per tick would not be cheap — the span
/// self-profile in common/health.h covers them incrementally).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};
MetricsSnapshot SnapshotCountersAndGauges();

/// Human-readable end-of-run report (sections: counters with
/// per-second rates over the run wall time, gauges, histograms incl.
/// span timings, series).
void WriteReport(std::ostream& out);

/// {"schema":"acobe.metrics.v1","counters":{...},"gauges":{...},
///  "histograms":{name:{count,sum,min,max,mean,p50,p95,p99}},
///  "series":{name:[...]}}
void WriteMetricsJson(std::ostream& out);

/// Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}
/// with complete ("ph":"X") events plus thread-name metadata records.
void WriteTraceJson(std::ostream& out);

/// Prometheus text exposition (version 0.0.4) of the registry: counters
/// and gauges as single samples, histograms as summaries (quantile
/// labels + _sum/_count). Metric names are prefixed "acobe_" and
/// sanitized to [a-zA-Z0-9_]; the original dotted name is kept in a
/// HELP line. This is the scrape surface the future resident daemon
/// serves; today the tools land it as a file for file-based scraping.
void WriteMetricsProm(std::ostream& out);

/// File variants; return false (and leave no partial guarantee) when
/// the file cannot be opened.
bool WriteMetricsJsonFile(const std::string& path);
bool WriteTraceJsonFile(const std::string& path);
bool WriteMetricsPromFile(const std::string& path);

/// The shared end-of-run flush every telemetry producer (tools, bench
/// binaries) performs: human report to `report`, then the metrics/trace
/// JSON files for whichever of the two paths is non-empty. A failed
/// file write logs "<tool>: cannot write <path>" on stderr and makes
/// the result false; the report and the other file are still attempted.
bool FlushTelemetry(const std::string& tool, const std::string& metrics_out,
                    const std::string& trace_out, std::ostream& report);

/// JSON string-escape / finite-number formatting used by every JSON
/// artifact this repo writes (metrics, traces, ledger, explain
/// reports). Escapes the two JSON metacharacters plus control bytes;
/// NaN/Inf are clamped to 0 so output always parses.
void JsonEscape(std::ostream& out, std::string_view s);
void JsonNumber(std::ostream& out, double v);

// --- Plumbing shared with trace.h (stable public API, rarely called
// --- directly by instrumentation sites).

/// Nanoseconds since the process's telemetry clock anchor (steady).
std::uint64_t NowNs();
/// Small dense id for the calling thread (1 = first thread observed).
int CurrentThreadTid();
/// Labels the calling thread in trace output ("pool-worker-3", ...).
void SetCurrentThreadName(const std::string& name);
/// Buffers one complete trace event for the calling thread.
void RecordTraceEvent(std::string name, std::uint64_t start_ns,
                      std::uint64_t duration_ns);

}  // namespace acobe::telemetry

// Statement macros for instrumentation sites with literal metric names.
// They cache the registry lookup in a function-local static, so the
// steady-state enabled cost is one relaxed load + one relaxed RMW (or a
// striped-lock append for histograms). Dynamic names (per-aspect
// series) call GetSeries()/GetHistogram() directly under
// MetricsEnabled().
#define ACOBE_COUNT(name, n)                                      \
  do {                                                            \
    if (acobe::telemetry::MetricsEnabled()) {                     \
      static acobe::telemetry::Counter& acobe_tm_metric =         \
          acobe::telemetry::GetCounter(name);                     \
      acobe_tm_metric.Add(static_cast<std::uint64_t>(n));         \
    }                                                             \
  } while (0)
#define ACOBE_GAUGE_SET(name, v)                                  \
  do {                                                            \
    if (acobe::telemetry::MetricsEnabled()) {                     \
      static acobe::telemetry::Gauge& acobe_tm_metric =           \
          acobe::telemetry::GetGauge(name);                       \
      acobe_tm_metric.Set(static_cast<double>(v));                \
    }                                                             \
  } while (0)
#define ACOBE_GAUGE_MAX(name, v)                                  \
  do {                                                            \
    if (acobe::telemetry::MetricsEnabled()) {                     \
      static acobe::telemetry::Gauge& acobe_tm_metric =           \
          acobe::telemetry::GetGauge(name);                       \
      acobe_tm_metric.SetMax(static_cast<double>(v));             \
    }                                                             \
  } while (0)
#define ACOBE_HISTOGRAM(name, v)                                  \
  do {                                                            \
    if (acobe::telemetry::MetricsEnabled()) {                     \
      static acobe::telemetry::Histogram& acobe_tm_metric =       \
          acobe::telemetry::GetHistogram(name);                   \
      acobe_tm_metric.Record(static_cast<double>(v));             \
    }                                                             \
  } while (0)
