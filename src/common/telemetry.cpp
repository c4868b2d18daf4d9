#include "common/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <memory>
#include <ostream>
#include <utility>

#include "common/faults.h"
#include "common/resource.h"

namespace acobe::telemetry {
namespace {

std::atomic<bool> g_metrics_enabled{false};
std::atomic<bool> g_tracing_enabled{false};

struct TraceEvent {
  std::string name;
  int tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

constexpr int kTraceStripes = 16;

// The registry is a leaked singleton: metric objects must outlive every
// thread-exit path and every static destructor that might still record
// (function-local statics at call sites hold references into it).
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series;

  struct TraceStripe {
    std::mutex mutex;
    std::vector<TraceEvent> events;
  };
  TraceStripe trace[kTraceStripes];
  std::mutex names_mutex;
  std::map<int, std::string> thread_names;
};

Registry& R() {
  static Registry* registry = new Registry;
  return *registry;
}

template <typename T>
T& GetOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
               std::string_view name) {
  Registry& r = R();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

// Nearest-rank over (value, weight) pairs sorted by value: the first
// value whose cumulative weight reaches ceil(p% of the total). With
// unit weights this is the textbook nearest-rank.
double NearestRank(const std::vector<std::pair<double, double>>& sorted,
                   double total_weight, double percentile) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::max(1.0, std::ceil(percentile / 100.0 * total_weight));
  double cumulative = 0.0;
  for (const auto& [value, weight] : sorted) {
    cumulative += weight;
    if (cumulative >= rank) return value;
  }
  return sorted.back().first;
}

// SplitMix64 finalizer: the reservoir's replacement draw, seeded by the
// stripe's count so a run's retained samples are reproducible.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void JsonEscape(std::ostream& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

// JSON numbers must not be NaN/Inf; metrics never should be, but a
// defensive clamp keeps the output parseable no matter what.
void JsonNumber(std::ostream& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out << buf;
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}
void EnableMetrics(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}
void EnableTracing(bool on) {
  g_tracing_enabled.store(on, std::memory_order_relaxed);
}

void Gauge::SetMax(double v) {
  double cur = value_.load(std::memory_order_relaxed);
  while (v > cur &&
         !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::Record(double v) {
  Stripe& stripe = stripes_[CurrentThreadTid() % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  if (stripe.count == 0 || v < stripe.min) stripe.min = v;
  if (stripe.count == 0 || v > stripe.max) stripe.max = v;
  stripe.sum += v;
  ++stripe.count;
  // The load keeps the full-cap path off the shared cache line.
  if (retained_.load() < kMaxSamples && retained_.fetch_add(1) < kMaxSamples) {
    stripe.samples.push_back(v);
    return;
  }
  // Past the cap (Algorithm R): the stripe kept every sample until the
  // cap filled, so replacing slot j < size with j uniform over the
  // stripe's count keeps its samples a uniform draw of its stream.
  const std::uint64_t j = Mix64(stripe.count) % stripe.count;
  if (j < stripe.samples.size()) stripe.samples[j] = v;
}

Histogram::Stats Histogram::Snapshot() const {
  Stats s;
  std::vector<std::pair<double, double>> weighted;  // (value, weight)
  double total_weight = 0.0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    if (stripe.count == 0) continue;
    s.min = s.count == 0 ? stripe.min : std::min(s.min, stripe.min);
    s.max = s.count == 0 ? stripe.max : std::max(s.max, stripe.max);
    s.count += stripe.count;
    s.sum += stripe.sum;
    if (stripe.samples.empty()) continue;
    // Each retained sample stands for count / retained recorded ones
    // (exactly 1 below the cap).
    const double weight = static_cast<double>(stripe.count) /
                          static_cast<double>(stripe.samples.size());
    for (double v : stripe.samples) weighted.emplace_back(v, weight);
    total_weight += static_cast<double>(stripe.count);
  }
  if (s.count == 0) return s;
  s.mean = s.sum / static_cast<double>(s.count);
  s.retained = weighted.size();
  std::sort(weighted.begin(), weighted.end());
  s.p50 = NearestRank(weighted, total_weight, 50.0);
  s.p95 = NearestRank(weighted, total_weight, 95.0);
  s.p99 = NearestRank(weighted, total_weight, 99.0);
  return s;
}

void Histogram::Reset() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.count = 0;
    stripe.sum = stripe.min = stripe.max = 0.0;
    stripe.samples.clear();
  }
  retained_.store(0);
}

void Series::Append(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.push_back(v);
}

std::vector<double> Series::Values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_;
}

void Series::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.clear();
}

Counter& GetCounter(std::string_view name) {
  return GetOrCreate(R().counters, name);
}
Gauge& GetGauge(std::string_view name) { return GetOrCreate(R().gauges, name); }
Histogram& GetHistogram(std::string_view name) {
  return GetOrCreate(R().histograms, name);
}
Series& GetSeries(std::string_view name) {
  return GetOrCreate(R().series, name);
}

void ResetTelemetry() {
  Registry& r = R();
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto& [name, c] : r.counters) c->Reset();
    for (auto& [name, g] : r.gauges) g->Reset();
    for (auto& [name, h] : r.histograms) h->Reset();
    for (auto& [name, s] : r.series) s->Reset();
  }
  for (auto& stripe : r.trace) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.events.clear();
  }
  std::lock_guard<std::mutex> lock(r.names_mutex);
  r.thread_names.clear();
}

std::uint64_t NowNs() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

int CurrentThreadTid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void SetCurrentThreadName(const std::string& name) {
  Registry& r = R();
  std::lock_guard<std::mutex> lock(r.names_mutex);
  r.thread_names[CurrentThreadTid()] = name;
}

void RecordTraceEvent(std::string name, std::uint64_t start_ns,
                      std::uint64_t duration_ns) {
  const int tid = CurrentThreadTid();
  auto& stripe = R().trace[tid % kTraceStripes];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.events.push_back(
      TraceEvent{std::move(name), tid, start_ns, duration_ns});
}

MetricsSnapshot SnapshotCountersAndGauges() {
  Registry& r = R();
  std::lock_guard<std::mutex> lock(r.mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(r.gauges.size());
  for (const auto& [name, g] : r.gauges) {
    snap.gauges.emplace_back(name, g->value());
  }
  return snap;
}

void WriteReport(std::ostream& out) {
  Registry& r = R();
  std::lock_guard<std::mutex> lock(r.mutex);
  // Rates are over the telemetry clock's anchor — effectively the run
  // wall time, since the anchor is set by the first instrumented event.
  const double wall_s = static_cast<double>(NowNs()) / 1e9;
  out << "--- telemetry report ------------------------------------------\n";
  if (!r.counters.empty()) {
    char head[160];
    std::snprintf(head, sizeof head, "%-42s %20s %14s\n",
                  "counters:", "total", "per-second");
    out << head;
    for (const auto& [name, c] : r.counters) {
      const double rate =
          wall_s > 0.0 ? static_cast<double>(c->value()) / wall_s : 0.0;
      char line[200];
      std::snprintf(line, sizeof line, "  %-40s %20llu %12.4g/s\n",
                    name.c_str(), static_cast<unsigned long long>(c->value()),
                    rate);
      out << line;
    }
  }
  if (!r.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, g] : r.gauges) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-40s %20.4g\n", name.c_str(),
                    g->value());
      out << line;
    }
  }
  if (!r.histograms.empty()) {
    char head[200];
    std::snprintf(head, sizeof head, "%-42s %8s %12s %10s %10s %10s %10s\n",
                  "histograms:", "count", "sum", "mean", "p50", "p95", "p99");
    out << head;
    for (const auto& [name, h] : r.histograms) {
      const Histogram::Stats s = h->Snapshot();
      char line[240];
      std::snprintf(line, sizeof line,
                    "  %-40s %8llu %12.3f %10.4f %10.4f %10.4f %10.4f\n",
                    name.c_str(), static_cast<unsigned long long>(s.count),
                    s.sum, s.mean, s.p50, s.p95, s.p99);
      out << line;
    }
  }
  if (!r.series.empty()) {
    out << "series:\n";
    for (const auto& [name, s] : r.series) {
      const std::vector<double> v = s->Values();
      char line[240];
      if (v.empty()) {
        std::snprintf(line, sizeof line, "  %-40s (empty)\n", name.c_str());
      } else {
        std::snprintf(line, sizeof line,
                      "  %-40s n=%-5zu first=%-10.5g last=%-10.5g\n",
                      name.c_str(), v.size(), v.front(), v.back());
      }
      out << line;
    }
  }
  out << "---------------------------------------------------------------\n";
}

void WriteMetricsJson(std::ostream& out) {
  Registry& r = R();
  std::lock_guard<std::mutex> lock(r.mutex);
  out << "{\n  \"schema\": \"acobe.metrics.v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : r.counters) {
    out << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(out, name);
    out << "\": " << c->value();
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : r.gauges) {
    out << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(out, name);
    out << "\": ";
    JsonNumber(out, g->value());
    first = false;
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : r.histograms) {
    const Histogram::Stats s = h->Snapshot();
    out << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(out, name);
    out << "\": {\"count\": " << s.count << ", \"sum\": ";
    JsonNumber(out, s.sum);
    out << ", \"min\": ";
    JsonNumber(out, s.min);
    out << ", \"max\": ";
    JsonNumber(out, s.max);
    out << ", \"mean\": ";
    JsonNumber(out, s.mean);
    out << ", \"p50\": ";
    JsonNumber(out, s.p50);
    out << ", \"p95\": ";
    JsonNumber(out, s.p95);
    out << ", \"p99\": ";
    JsonNumber(out, s.p99);
    out << "}";
    first = false;
  }
  out << "\n  },\n  \"series\": {";
  first = true;
  for (const auto& [name, s] : r.series) {
    out << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(out, name);
    out << "\": [";
    const std::vector<double> values = s->Values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out << ", ";
      JsonNumber(out, values[i]);
    }
    out << "]";
    first = false;
  }
  out << "\n  }\n}\n";
}

void WriteTraceJson(std::ostream& out) {
  Registry& r = R();
  std::vector<TraceEvent> events;
  for (auto& stripe : r.trace) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    events.insert(events.end(), stripe.events.begin(), stripe.events.end());
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(r.names_mutex);
    for (const auto& [tid, name] : r.thread_names) {
      out << (first ? "\n" : ",\n")
          << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
             "\"tid\": "
          << tid << ", \"args\": {\"name\": \"";
      JsonEscape(out, name);
      out << "\"}}";
      first = false;
    }
  }
  for (const TraceEvent& e : events) {
    out << (first ? "\n" : ",\n") << "  {\"name\": \"";
    JsonEscape(out, e.name);
    out << "\", \"cat\": \"acobe\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << e.tid << ", \"ts\": ";
    JsonNumber(out, static_cast<double>(e.start_ns) / 1e3);
    out << ", \"dur\": ";
    JsonNumber(out, static_cast<double>(e.duration_ns) / 1e3);
    out << "}";
    first = false;
  }
  out << "\n]}\n";
}

namespace {

/// Prometheus metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots and
/// anything else exotic in our registry names map to '_'.
std::string PromName(std::string_view name) {
  std::string out = "acobe_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// HELP-text escaping per the exposition format: backslash and newline
/// only (HELP text is otherwise free-form UTF-8).
void PromHelpEscape(std::ostream& out, std::string_view s) {
  for (char c : s) {
    if (c == '\\') {
      out << "\\\\";
    } else if (c == '\n') {
      out << "\\n";
    } else {
      out << c;
    }
  }
}

/// Label-value escaping: backslash, double quote, newline.
void PromLabelEscape(std::ostream& out, std::string_view s) {
  for (char c : s) {
    if (c == '\\') {
      out << "\\\\";
    } else if (c == '"') {
      out << "\\\"";
    } else if (c == '\n') {
      out << "\\n";
    } else {
      out << c;
    }
  }
}

void PromHelpType(std::ostream& out, const std::string& prom_name,
                  const std::string& source_name, const char* type) {
  out << "# HELP " << prom_name << " acobe metric ";
  PromHelpEscape(out, source_name);
  out << "\n# TYPE " << prom_name << " " << type << "\n";
}

}  // namespace

void WriteMetricsProm(std::ostream& out) {
  Registry& r = R();
  std::lock_guard<std::mutex> lock(r.mutex);
  // Sanitization can collide distinct registry names ("a.b" and "a_b"
  // both map to acobe_a_b); a duplicate exposition name is invalid, so
  // later claimants get a numeric suffix. Summary names also reserve
  // their derived _sum/_count sample names.
  std::set<std::string> used;
  const auto claim = [&used](std::string base, bool summary) {
    std::string name = base;
    for (int n = 2;; ++n) {
      const bool free =
          !used.count(name) &&
          (!summary || (!used.count(name + "_sum") &&
                        !used.count(name + "_count")));
      if (free) break;
      name = base + "_" + std::to_string(n);
    }
    used.insert(name);
    if (summary) {
      used.insert(name + "_sum");
      used.insert(name + "_count");
    }
    return name;
  };
  for (const auto& [name, c] : r.counters) {
    const std::string prom = claim(PromName(name), false);
    PromHelpType(out, prom, name, "counter");
    out << prom << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : r.gauges) {
    const std::string prom = claim(PromName(name), false);
    PromHelpType(out, prom, name, "gauge");
    out << prom << " ";
    JsonNumber(out, g->value());
    out << "\n";
  }
  for (const auto& [name, h] : r.histograms) {
    const Histogram::Stats s = h->Snapshot();
    const std::string prom = claim(PromName(name), true);
    PromHelpType(out, prom, name, "summary");
    const struct { const char* q; double v; } quantiles[] = {
        {"0.5", s.p50}, {"0.95", s.p95}, {"0.99", s.p99}};
    for (const auto& [q, v] : quantiles) {
      out << prom << "{quantile=\"";
      PromLabelEscape(out, q);
      out << "\"} ";
      JsonNumber(out, v);
      out << "\n";
    }
    out << prom << "_sum ";
    JsonNumber(out, s.sum);
    out << "\n" << prom << "_count " << s.count << "\n";
  }
}

bool WriteMetricsJsonFile(const std::string& path) {
  // Atomic so a crash mid-dump can't leave a half-written JSON file
  // where a previous run's valid export used to be.
  try {
    WriteFileAtomic(path, [](std::ostream& out) { WriteMetricsJson(out); });
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool WriteTraceJsonFile(const std::string& path) {
  try {
    WriteFileAtomic(path, [](std::ostream& out) { WriteTraceJson(out); });
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool WriteMetricsPromFile(const std::string& path) {
  try {
    WriteFileAtomic(path, [](std::ostream& out) { WriteMetricsProm(out); });
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool FlushTelemetry(const std::string& tool, const std::string& metrics_out,
                    const std::string& trace_out, std::ostream& report) {
  // Stamp the process high-water mark last, so it covers the whole run.
  if (MetricsEnabled()) {
    if (const std::uint64_t peak = PeakRssBytes(); peak > 0) {
      GetGauge("process.peak_rss_bytes").Set(static_cast<double>(peak));
    }
  }
  WriteReport(report);
  bool ok = true;
  if (!metrics_out.empty() && !WriteMetricsJsonFile(metrics_out)) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool.c_str(),
                 metrics_out.c_str());
    ok = false;
  }
  if (!trace_out.empty() && !WriteTraceJsonFile(trace_out)) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool.c_str(),
                 trace_out.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace acobe::telemetry
