// acobe-top: terminal viewer for a live "acobe.health.v1" heartbeat
// file (written by acobe-detect/acobe-gen --health-out) or, with
// --url, for a resident acobe-serve daemon's observability endpoint.
//
//   acobe-top HEALTH_FILE [--once] [--interval-ms=N] [--spans=N]
//   acobe-top --url=http://HOST:PORT [--once] [--interval-ms=N]
//
// Follow mode (the default) repaints a dashboard every --interval-ms
// (default 1000): tool + uptime, the current stage with a progress bar
// and ETA, per-stage wall times, RSS (current and peak), CPU
// utilization, the busiest counters by rate, and the span self-profile.
// It exits when the run lands its "final":true heartbeat. --once
// renders the latest heartbeat once and exits — the CI smoke uses it as
// a render check.
//
// The file is re-read whole on every tick and the last parseable line
// wins, so a heartbeat torn by a crash (or a writer mid-append) is
// skipped, never fatal.
//
// Remote mode (--url) polls GET /statusz and /cycles instead: service
// readiness, window span, per-shard quarantine state, open alerts per
// department, the alert-latency/cycle-wall SLO rollups, and the recent
// per-cycle wall-time breakdown (ingest + detect + commit = total) with
// the train/score thread-seconds beside it. A fetch error
// in follow mode renders as "waiting" (the daemon may be restarting);
// with --once it exits 1.
//
// Exit codes: 0 ok, 1 no heartbeat could be read, 2 usage.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.h"
#include "common/faults.h"
#include "common/json.h"
#include "net/http_client.h"

using namespace acobe;

namespace {

void Usage() {
  std::printf(
      "acobe-top HEALTH_FILE [--once] [--interval-ms=N] [--spans=N]\n"
      "acobe-top --url=http://HOST:PORT [--once] [--interval-ms=N]\n"
      "  --once            render the latest heartbeat once and exit\n"
      "  --interval-ms=N   repaint period in follow mode (default 1000)\n"
      "  --spans=N         span-profile rows shown (default 12)\n"
      "  --url=U           poll a running acobe-serve daemon's /statusz\n"
      "                    and /cycles instead of reading a file\n"
      "  --version         print build identity and exit\n");
}

/// Last line of `path` that parses as a JSON object. Null type when the
/// file is missing, empty, or holds only torn lines.
json::Value LastHeartbeat(const std::string& path) {
  std::ifstream in(path);
  json::Value latest;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      json::Value v = json::Value::Parse(line);
      if (v.is_object()) latest = std::move(v);
    } catch (const json::ParseError&) {
      // Torn tail (crash mid-append): keep the previous whole line.
    }
  }
  return latest;
}

std::string HumanBytes(double bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), unit == 0 ? "%.0f %s" : "%.1f %s", bytes,
                kUnits[unit]);
  return buf;
}

std::string HumanSeconds(double s) {
  char buf[48];
  if (s < 0) return "--:--";
  const long total = static_cast<long>(s + 0.5);
  if (total >= 3600) {
    std::snprintf(buf, sizeof(buf), "%ld:%02ld:%02ld", total / 3600,
                  (total % 3600) / 60, total % 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%02ld:%02ld", total / 60, total % 60);
  }
  return buf;
}

std::string ProgressBar(double fraction, int width) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string bar = "[";
  for (int i = 0; i < width; ++i) bar += i < filled ? '#' : '.';
  bar += ']';
  return bar;
}

struct CounterRow {
  std::string name;
  double total;
  double rate;
};

/// One full repaint of the dashboard into `out`.
void Render(std::ostream& out, const json::Value& hb, int span_rows) {
  const std::string tool = hb.GetString("tool", "?");
  const double uptime_s = hb.GetNumber("uptime_ms", 0) / 1000.0;
  const bool final_beat = hb.GetBool("final", false);
  char line[256];

  std::snprintf(line, sizeof(line),
                "%s  seq %-6.0f up %s  %s\n", tool.c_str(),
                hb.GetNumber("seq", 0), HumanSeconds(uptime_s).c_str(),
                final_beat ? "(run complete)" : "(live)");
  out << line;

  // Stage + progress bar + ETA.
  if (const json::Value* stage = hb.Get("stage")) {
    const std::string name = stage->GetString("name", "?");
    const std::string detail = stage->GetString("detail", "");
    const double done = stage->GetNumber("done", 0);
    const double total = stage->GetNumber("total", 0);
    const double eta = stage->GetNumber("eta_s", -1);
    out << "stage " << name;
    if (!detail.empty()) out << " (" << detail << ")";
    if (total > 0) {
      std::snprintf(line, sizeof(line), "  %s %.0f/%.0f (%.0f%%)  eta %s",
                    ProgressBar(done / total, 24).c_str(), done, total,
                    100.0 * done / total, HumanSeconds(eta).c_str());
      out << line;
    }
    std::snprintf(line, sizeof(line), "  %s in stage\n",
                  HumanSeconds(stage->GetNumber("elapsed_s", 0)).c_str());
    out << line;
  }

  // Memory + CPU.
  const double rss = hb.GetNumber("rss_bytes", 0);
  const double peak = hb.GetNumber("peak_rss_bytes", 0);
  double util = 0.0, cpu_s = 0.0;
  if (const json::Value* cpu = hb.Get("cpu")) {
    util = cpu->GetNumber("utilization", 0);
    cpu_s = cpu->GetNumber("proc_seconds", 0);
  }
  std::snprintf(line, sizeof(line),
                "rss %s (peak %s)  cpu %.1f cores (%.0fs total)\n\n",
                HumanBytes(rss).c_str(), HumanBytes(peak).c_str(), util,
                cpu_s);
  out << line;

  // Per-stage wall times.
  if (const json::Value* stages = hb.Get("stages");
      stages != nullptr && stages->is_array() && stages->size() > 0) {
    out << "  stage        seconds       done/total\n";
    for (std::size_t i = 0; i < stages->size(); ++i) {
      const json::Value& s = (*stages)[i];
      const double total = s.GetNumber("total", 0);
      std::string progress;
      if (total > 0) {
        std::snprintf(line, sizeof(line), "%.0f/%.0f",
                      s.GetNumber("done", 0), total);
        progress = line;
      }
      std::snprintf(line, sizeof(line), "  %-12s %10.2f   %12s\n",
                    s.GetString("stage", "?").c_str(),
                    s.GetNumber("seconds", 0), progress.c_str());
      out << line;
    }
    out << '\n';
  }

  // Busiest counters by current rate (totals as tie-break, so a stalled
  // run still shows where the work went).
  if (const json::Value* counters = hb.Get("counters");
      counters != nullptr && counters->is_object()) {
    std::vector<CounterRow> rows;
    for (const auto& [name, value] : counters->AsObject()) {
      rows.push_back(CounterRow{name, value.GetNumber("total", 0),
                                value.GetNumber("rate", 0)});
    }
    std::sort(rows.begin(), rows.end(),
              [](const CounterRow& a, const CounterRow& b) {
                if (a.rate != b.rate) return a.rate > b.rate;
                return a.total > b.total;
              });
    if (!rows.empty()) {
      out << "  counter                                total    per-second\n";
      const std::size_t shown = std::min<std::size_t>(rows.size(), 8);
      for (std::size_t i = 0; i < shown; ++i) {
        std::snprintf(line, sizeof(line), "  %-32s %12.0f  %12.1f\n",
                      rows[i].name.c_str(), rows[i].total, rows[i].rate);
        out << line;
      }
      out << '\n';
    }
  }

  // Span self-profile (already sorted by total_ms by the writer).
  if (const json::Value* spans = hb.Get("spans");
      spans != nullptr && spans->is_array() && spans->size() > 0) {
    out << "  span                       parent                    count"
           "     total ms      self ms\n";
    const std::size_t shown =
        std::min<std::size_t>(spans->size(),
                              static_cast<std::size_t>(span_rows));
    for (std::size_t i = 0; i < shown; ++i) {
      const json::Value& s = (*spans)[i];
      std::snprintf(line, sizeof(line),
                    "  %-26s %-22s %7.0f %12.1f %12.1f\n",
                    s.GetString("name", "?").c_str(),
                    s.GetString("parent", "").c_str(),
                    s.GetNumber("count", 0), s.GetNumber("total_ms", 0),
                    s.GetNumber("self_ms", 0));
      out << line;
    }
    if (spans->size() > shown) {
      out << "  ... " << spans->size() - shown << " more\n";
    }
  }
}

// --- Remote (daemon) dashboard ---------------------------------------

/// Fetches `path` from the daemon and parses the JSON body. Throws
/// (std::runtime_error / json::ParseError) on any failure, including
/// non-200 statuses other than 503 (503 bodies are valid "not ready"
/// JSON and render as such).
json::Value FetchJson(const net::ParsedUrl& base, const std::string& path) {
  const net::HttpResult res = net::HttpGet(base.host, base.port, path);
  if (res.status != 200 && res.status != 503) {
    throw std::runtime_error(path + " answered HTTP " +
                             std::to_string(res.status));
  }
  return json::Value::Parse(res.body);
}

/// One full repaint of the daemon dashboard from /statusz + /cycles.
void RenderStatus(std::ostream& out, const json::Value& status,
                  const json::Value& cycles) {
  char line[256];
  const bool ready = status.GetBool("ready", false);
  std::snprintf(line, sizeof(line), "%s %s  cycle %-6.0f alerts %-6.0f %s\n",
                status.GetString("tool", "acobe-serve").c_str(),
                status.GetString("version", "?").c_str(),
                status.GetNumber("cycle", 0),
                status.GetNumber("alerts_total", 0),
                ready ? "(ready)" : "(starting: replay in progress)");
  out << line;
  if (!ready) return;

  if (const json::Value* window = status.Get("window");
      window != nullptr && window->is_object()) {
    out << "window " << window->GetString("start", "?") << ".."
        << window->GetString("end", "?") << "  last scored "
        << status.GetString("last_scored_day", "-") << "  last batch "
        << status.GetString("last_batch", "-") << "\n";
  } else {
    out << "window -  (no events ingested yet)\n";
  }

  if (const json::Value* slo = status.Get("slo");
      slo != nullptr && slo->is_object()) {
    std::snprintf(line, sizeof(line),
                  "slo  alert-latency p50 %s p95 %s (%.0f sample(s))  "
                  "cycle-wall p50 %s p95 %s\n\n",
                  HumanSeconds(slo->GetNumber("alert_latency_p50_s", 0))
                      .c_str(),
                  HumanSeconds(slo->GetNumber("alert_latency_p95_s", 0))
                      .c_str(),
                  slo->GetNumber("alert_latency_samples", 0),
                  HumanSeconds(slo->GetNumber("cycle_wall_p50_s", 0)).c_str(),
                  HumanSeconds(slo->GetNumber("cycle_wall_p95_s", 0)).c_str());
    out << line;
  }

  if (const json::Value* shards = status.Get("shards");
      shards != nullptr && shards->is_array() && shards->size() > 0) {
    out << "  shard   state\n";
    for (std::size_t i = 0; i < shards->size(); ++i) {
      const json::Value& s = (*shards)[i];
      std::string state = "ok";
      if (s.GetBool("quarantined", false)) {
        state = "QUARANTINED";
      } else if (s.GetNumber("failures", 0) > 0) {
        std::snprintf(line, sizeof(line), "ok (%.0f failure(s))",
                      s.GetNumber("failures", 0));
        state = line;
      }
      std::snprintf(line, sizeof(line), "  %5.0f   %s\n",
                    s.GetNumber("shard", 0), state.c_str());
      out << line;
    }
    out << '\n';
  }

  if (const json::Value* depts = status.Get("departments");
      depts != nullptr && depts->is_array() && depts->size() > 0) {
    out << "  department                       members   open alerts\n";
    for (std::size_t i = 0; i < depts->size(); ++i) {
      const json::Value& d = (*depts)[i];
      std::snprintf(line, sizeof(line), "  %-32s %7.0f %13.0f\n",
                    d.GetString("name", "?").c_str(),
                    d.GetNumber("members", 0), d.GetNumber("open_alerts", 0));
      out << line;
    }
    out << '\n';
  }

  if (const json::Value* recent = cycles.Get("cycles");
      recent != nullptr && recent->is_array() && recent->size() > 0) {
    out << "  cycle  batch         events    alerts   ingest s   "
           "detect s   commit s    total s    train s    score s\n";
    for (std::size_t i = 0; i < recent->size(); ++i) {
      const json::Value& c = (*recent)[i];
      std::snprintf(line, sizeof(line),
                    "  %5.0f  %-12s %8.0f %9.0f %10.2f %10.2f %10.2f "
                    "%10.2f %10.2f %10.2f\n",
                    c.GetNumber("cycle", 0),
                    c.GetString("batch", "?").c_str(),
                    c.GetNumber("events_admitted", 0),
                    c.GetNumber("alerts", 0), c.GetNumber("ingest_s", 0),
                    c.GetNumber("detect_s", 0), c.GetNumber("commit_s", 0),
                    c.GetNumber("total_s", 0), c.GetNumber("train_s", 0),
                    c.GetNumber("score_s", 0));
      out << line;
    }
  }
}

/// Remote mode main loop; mirrors the file-mode once/follow contract.
int RunRemote(const std::string& url, bool once, int interval_ms) {
  net::ParsedUrl base;
  try {
    base = net::ParseHttpUrl(url);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "acobe-top: %s\n", e.what());
    return kExitUsage;
  }

  for (;;) {
    std::ostringstream frame;
    bool fetched = false;
    if (!once) frame << "\033[H\033[2J";  // home + clear
    try {
      const json::Value status = FetchJson(base, "/statusz");
      const json::Value cycles = FetchJson(base, "/cycles?n=8");
      RenderStatus(frame, status, cycles);
      fetched = true;
    } catch (const std::exception& e) {
      frame << "acobe-top: waiting for " << url << " (" << e.what() << ")\n";
    }
    std::fputs(frame.str().c_str(), stdout);
    std::fflush(stdout);
    if (once) return fetched ? 0 : kExitFailure;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string url;
  bool once = false;
  int interval_ms = 1000;
  int span_rows = 12;

  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--once") == 0) {
        once = true;
      } else if (std::strncmp(arg, "--url=", 6) == 0) {
        url = arg + 6;
      } else if (std::strncmp(arg, "--interval-ms=", 14) == 0) {
        interval_ms =
            static_cast<int>(cli::ParseInt(arg, arg + 14, 10, 3600000));
      } else if (std::strncmp(arg, "--spans=", 8) == 0) {
        span_rows = static_cast<int>(cli::ParseInt(arg, arg + 8, 1, 1000));
      } else if (std::strcmp(arg, "--version") == 0) {
        cli::PrintVersion("acobe-top");
        return 0;
      } else if (std::strcmp(arg, "--help") == 0) {
        Usage();
        return 0;
      } else if (arg[0] == '-') {
        std::fprintf(stderr, "acobe-top: unknown argument '%s'\n", arg);
        Usage();
        return kExitUsage;
      } else if (path.empty()) {
        path = arg;
      } else {
        Usage();
        return kExitUsage;
      }
    }
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "acobe-top: %s\n", e.what());
    Usage();
    return kExitUsage;
  }
  if (!url.empty()) {
    if (!path.empty()) {
      std::fprintf(stderr,
                   "acobe-top: --url and HEALTH_FILE are exclusive\n");
      Usage();
      return kExitUsage;
    }
    return RunRemote(url, once, interval_ms);
  }
  if (path.empty()) {
    Usage();
    return kExitUsage;
  }

  if (once) {
    const json::Value hb = LastHeartbeat(path);
    if (!hb.is_object()) {
      std::fprintf(stderr, "acobe-top: no heartbeat in %s\n", path.c_str());
      return kExitFailure;
    }
    std::ostringstream frame;
    Render(frame, hb, span_rows);
    std::fputs(frame.str().c_str(), stdout);
    return 0;
  }

  // Follow mode: repaint until the final heartbeat lands. A missing or
  // not-yet-written file is just "waiting" — the run may still be
  // starting up.
  bool ever = false;
  for (;;) {
    const json::Value hb = LastHeartbeat(path);
    std::ostringstream frame;
    frame << "\033[H\033[2J";  // home + clear
    if (hb.is_object()) {
      ever = true;
      Render(frame, hb, span_rows);
    } else {
      frame << "acobe-top: waiting for heartbeats in " << path << "\n";
    }
    std::fputs(frame.str().c_str(), stdout);
    std::fflush(stdout);
    if (hb.is_object() && hb.GetBool("final", false)) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return ever ? 0 : kExitFailure;
}
