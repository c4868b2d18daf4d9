// acobe-serve: the resident ACOBE detection daemon.
//
//   acobe_serve --watch=DIR --out=DIR --roster=FILE [options]
//
// Feeders drop *batch directories* into the watch directory: a
// directory holding any of device.csv / file.csv / http.csv /
// logon.csv (CERT layout) plus an empty READY marker file, written
// last. Every READY batch becomes one detection cycle: the main thread
// parses its events into per-shard sliding --window-days event windows,
// then each newly scorable day runs the full ACOBE pipeline per
// department, one pool task per shard (--shards), feeding a
// persistent-alert monitor. Closed alerts append to OUT/alerts.jsonl;
// cycle and detection provenance appends to OUT/ledger.jsonl.
//
// Crash safety: every cycle commits through OUT/service.journal
// (src/service/journal.h). Kill the process at any instant — including
// kill -9 — and the restarted daemon resumes where the journal says,
// producing output streams byte-identical to an uninterrupted run, at
// any --shards. Batch directories must stay immutable after their READY
// marker appears; the journal stores their digests and refuses to
// resume over mutated inputs.
//
// Supervision: a shard whose detection cycle keeps throwing is retried
// under seeded exponential backoff (three retries from 100 ms) and then
// quarantined — its departments stop reporting (a "shard_quarantined"
// ledger event records why) while the rest of the service keeps going.
//
// --admission=block is accepted as a no-op: admission is always
// lossless. Departments with fewer than 3 members are skipped, as in
// acobe_detect.
//
// Exit codes: 0 success (drained, or clean signal shutdown), 1 internal
// failure, 2 usage, 3 bad input data, 4 corrupt or non-resumable
// on-disk state (journal/config mismatch, mutated batch).
//
// SIGINT/SIGTERM request a cooperative shutdown: the current cycle
// finishes its commit, a run_complete(reason=signal) event lands, the
// final heartbeat reports stage "done", and the process exits 0.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.h"
#include "common/date.h"
#include "common/faults.h"
#include "common/health.h"
#include "common/shutdown.h"
#include "common/telemetry.h"
#include "common/version.h"
#include "net/http_server.h"
#include "service/supervisor.h"

using namespace acobe;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: acobe_serve --watch=DIR --out=DIR --roster=FILE\n"
      "             [--window-days=N] [--train-days=N] [--omega=N]\n"
      "             [--epochs=N] [--votes=N] [--top=N] [--seed=N]\n"
      "             [--alert-top=N] [--persistence-days=N] [--cooloff-days=N]\n"
      "             [--shards=N] [--ingest=strict|permissive]\n"
      "             [--error-budget=X] [--poll-ms=N] [--drain]\n"
      "             [--health-out=F] [--health-interval-ms=N]\n"
      "             [--metrics-out=F] [--listen=ADDR:PORT] [--version]\n"
      "\n"
      "  --watch=DIR         drop directory scanned for READY batches\n"
      "  --out=DIR           journal + alerts.jsonl + ledger.jsonl\n"
      "  --roster=FILE       ldap.csv naming users and departments\n"
      "  --window-days=N     sliding event window (default 28)\n"
      "  --train-days=N      training prefix of the window (default 14)\n"
      "  --omega=N           deviation window omega (default 7)\n"
      "  --epochs=N          training epochs per aspect (default 6)\n"
      "  --votes=N           critic votes N (default 2)\n"
      "  --top=N             investigation-list length in ledger (default 10)\n"
      "  --seed=N            ensemble seed (default 1234)\n"
      "  --alert-top=N       daily positions that count as firing (default 3)\n"
      "  --persistence-days=N  days of firing that open an alert (default 2)\n"
      "  --cooloff-days=N    quiet days that close an alert (default 2)\n"
      "  --shards=N          parallel detection shards (default 2, capped at\n"
      "                      #depts; output is identical at any value)\n"
      "  --ingest=P          batch CSV row policy (default strict)\n"
      "  --error-budget=X    permissive-mode bad-row budget (default 0.05)\n"
      "  --poll-ms=N         watch-directory poll interval (default 500)\n"
      "  --drain             process pending batches, then exit\n"
      "  --health-out=F      heartbeat JSONL (tools/check_health.py)\n"
      "  --metrics-out=F     write telemetry metrics JSON to F\n"
      "  --listen=[A:]P      serve GET /metrics /healthz /readyz /statusz\n"
      "                      /cycles on address A (default 127.0.0.1) port P\n"
      "                      (0 = ephemeral; the pick lands in OUT/http.addr)\n");
}

// --- Observability endpoint JSON composition. The supervisor hands out
// --- plain snapshot structs; the JSON shape (and its schema tags) is
// --- this tool's contract with scrapers and acobe-top's remote mode.

std::string JsonStr(const std::string& s) {
  std::ostringstream os;
  os << '"';
  telemetry::JsonEscape(os, s);
  os << '"';
  return std::move(os).str();
}

std::string JsonNum(double v) {
  std::ostringstream os;
  telemetry::JsonNumber(os, v);
  return std::move(os).str();
}

std::string StatuszJson(const ServiceSupervisor& sup) {
  const ServiceStatus st = sup.Status();
  const BuildInfo info = GetBuildInfo();
  const auto alert_slo = sup.cycle_stats().AlertLatency();
  const auto wall_slo = sup.cycle_stats().CycleWall();
  std::ostringstream os;
  os << "{\"schema\":\"acobe.statusz.v1\",\"tool\":\"acobe-serve\""
     << ",\"version\":" << JsonStr(info.version)
     << ",\"build_type\":" << JsonStr(info.build_type)
     << ",\"simd\":" << JsonStr(info.simd)
     << ",\"ready\":" << (st.ready ? "true" : "false")
     << ",\"recovered\":" << (st.recovered ? "true" : "false")
     << ",\"cycle\":" << st.cycle << ",\"alerts_total\":" << st.alerts_total
     << ",\"last_batch\":" << JsonStr(st.last_batch);
  if (st.window_end >= st.window_start) {
    os << ",\"window\":{\"start\":"
       << JsonStr(Date::FromDayNumber(st.window_start).ToString())
       << ",\"end\":" << JsonStr(Date::FromDayNumber(st.window_end).ToString())
       << "}";
  } else {
    os << ",\"window\":null";
  }
  if (st.last_scored_day >= 0) {
    os << ",\"last_scored_day\":"
       << JsonStr(Date::FromDayNumber(st.last_scored_day).ToString());
  } else {
    os << ",\"last_scored_day\":null";
  }
  os << ",\"shards\":[";
  for (std::size_t i = 0; i < st.shards.size(); ++i) {
    const ShardStatus& s = st.shards[i];
    if (i) os << ',';
    // queue_peak_rows and queue_shed are always 0 (there are no
    // admission queues); perfbench's serve_live still reads both.
    os << "{\"shard\":" << i << ",\"queue_peak_rows\":0,\"queue_shed\":0"
       << ",\"quarantined\":" << (s.quarantined ? "true" : "false")
       << ",\"failures\":" << s.failures << "}";
  }
  os << "],\"departments\":[";
  for (std::size_t i = 0; i < st.departments.size(); ++i) {
    const DepartmentStatus& d = st.departments[i];
    if (i) os << ',';
    os << "{\"name\":" << JsonStr(d.name) << ",\"members\":" << d.members
       << ",\"open_alerts\":" << d.open_alerts << "}";
  }
  os << "],\"slo\":{\"cycles_observed\":" << sup.cycle_stats().total_recorded()
     << ",\"alert_latency_samples\":" << alert_slo.count
     << ",\"alert_latency_p50_s\":" << JsonNum(alert_slo.p50)
     << ",\"alert_latency_p95_s\":" << JsonNum(alert_slo.p95)
     << ",\"cycle_wall_p50_s\":" << JsonNum(wall_slo.p50)
     << ",\"cycle_wall_p95_s\":" << JsonNum(wall_slo.p95) << "}}\n";
  return std::move(os).str();
}

std::string CyclesJson(const ServiceSupervisor& sup, std::size_t n) {
  const std::vector<service::CycleStat> recent = sup.cycle_stats().Recent(n);
  std::ostringstream os;
  os << "{\"schema\":\"acobe.cycles.v1\",\"total_recorded\":"
     << sup.cycle_stats().total_recorded() << ",\"count\":" << recent.size()
     << ",\"cycles\":[";
  for (std::size_t i = 0; i < recent.size(); ++i) {
    const service::CycleStat& c = recent[i];
    if (i) os << ',';
    os << "{\"cycle\":" << c.cycle << ",\"batch\":" << JsonStr(c.batch);
    if (c.window_end >= c.window_start) {
      os << ",\"window_start\":"
         << JsonStr(Date::FromDayNumber(c.window_start).ToString())
         << ",\"window_end\":"
         << JsonStr(Date::FromDayNumber(c.window_end).ToString());
    }
    if (c.scored_to >= c.scored_from) {
      os << ",\"scored_from\":"
         << JsonStr(Date::FromDayNumber(c.scored_from).ToString())
         << ",\"scored_to\":"
         << JsonStr(Date::FromDayNumber(c.scored_to).ToString());
    }
    os << ",\"events_admitted\":" << c.events_admitted
       << ",\"departments_scored\":" << c.departments_scored
       << ",\"alerts\":" << c.alerts
       << ",\"ingest_s\":" << JsonNum(c.ingest_s)
       << ",\"detect_s\":" << JsonNum(c.detect_s)
       << ",\"train_s\":" << JsonNum(c.train_s)
       << ",\"score_s\":" << JsonNum(c.score_s)
       << ",\"commit_s\":" << JsonNum(c.commit_s)
       << ",\"total_s\":" << JsonNum(c.total_s)
       << ",\"batch_age_s\":" << JsonNum(c.batch_age_s)
       << ",\"alert_latency_s\":" << JsonNum(c.alert_latency_s) << "}";
  }
  os << "]}\n";
  return std::move(os).str();
}

void RegisterEndpoints(net::HttpServer& http, ServiceSupervisor& sup) {
  http.Handle("/", [](const net::HttpRequest&) {
    net::HttpResponse r;
    r.body =
        "acobe-serve observability endpoints:\n"
        "  /metrics   Prometheus text exposition\n"
        "  /healthz   liveness (200 while the process serves)\n"
        "  /readyz    readiness (503 until journal replay completes)\n"
        "  /statusz   JSON service snapshot (acobe.statusz.v1)\n"
        "  /cycles    JSON per-cycle time-series (acobe.cycles.v1, ?n=K)\n";
    return r;
  });
  http.Handle("/metrics", [](const net::HttpRequest&) {
    net::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    std::ostringstream os;
    telemetry::WriteMetricsProm(os);
    r.body = std::move(os).str();
    return r;
  });
  http.Handle("/healthz", [](const net::HttpRequest&) {
    net::HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  http.Handle("/readyz", [&sup](const net::HttpRequest&) {
    net::HttpResponse r;
    if (sup.Ready()) {
      r.body = "ready\n";
    } else {
      r.status = 503;
      r.body = "starting: journal replay / window rebuild in progress\n";
    }
    return r;
  });
  http.Handle("/statusz", [&sup](const net::HttpRequest&) {
    net::HttpResponse r;
    r.content_type = "application/json";
    if (!sup.Ready()) {
      r.status = 503;
      r.body = "{\"schema\":\"acobe.statusz.v1\",\"ready\":false}\n";
      return r;
    }
    r.body = StatuszJson(sup);
    return r;
  });
  http.Handle("/cycles", [&sup](const net::HttpRequest& req) {
    net::HttpResponse r;
    r.content_type = "application/json";
    std::size_t n = 64;
    const std::string raw = req.QueryParam("n", "64");
    try {
      n = static_cast<std::size_t>(cli::ParseInt("n", raw.c_str(), 1, 4096));
    } catch (const cli::FlagError&) {
      r.status = 400;
      r.content_type = "text/plain; charset=utf-8";
      r.body = "bad query parameter n (want an integer in [1, 4096])\n";
      return r;
    }
    r.body = CyclesJson(sup, n);
    return r;
  });
}

}  // namespace

int main(int argc, char** argv) {
  ServiceConfig cfg;
  cfg.ingest.ts_min = kPlausibleTsMin;
  cfg.ingest.ts_max = kPlausibleTsMax;
  std::string health_out, metrics_out;
  int health_interval_ms = 1000;
  int poll_ms = 500;
  bool drain = false;
  bool listen_enabled = false;
  std::string listen_address;
  std::uint16_t listen_port = 0;

  const long long kMaxInt = std::numeric_limits<int>::max();
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--watch=", 8) == 0) {
        cfg.watch_dir = arg + 8;
      } else if (std::strncmp(arg, "--out=", 6) == 0) {
        cfg.out_dir = arg + 6;
      } else if (std::strncmp(arg, "--roster=", 9) == 0) {
        cfg.roster_path = arg + 9;
      } else if (std::strncmp(arg, "--window-days=", 14) == 0) {
        cfg.window_days =
            static_cast<int>(cli::ParseInt(arg, arg + 14, 3, kMaxInt));
      } else if (std::strncmp(arg, "--train-days=", 13) == 0) {
        cfg.train_days =
            static_cast<int>(cli::ParseInt(arg, arg + 13, 2, kMaxInt));
      } else if (std::strncmp(arg, "--omega=", 8) == 0) {
        cfg.omega = static_cast<int>(cli::ParseInt(arg, arg + 8, 2, kMaxInt));
      } else if (std::strncmp(arg, "--epochs=", 9) == 0) {
        cfg.epochs = static_cast<int>(cli::ParseInt(arg, arg + 9, 1, kMaxInt));
      } else if (std::strncmp(arg, "--votes=", 8) == 0) {
        cfg.votes = static_cast<int>(cli::ParseInt(arg, arg + 8, 1, kMaxInt));
      } else if (std::strncmp(arg, "--top=", 6) == 0) {
        cfg.top = static_cast<int>(cli::ParseInt(arg, arg + 6, 1, kMaxInt));
      } else if (std::strncmp(arg, "--seed=", 7) == 0) {
        cfg.seed = static_cast<std::uint64_t>(
            cli::ParseInt(arg, arg + 7, 0, std::numeric_limits<long long>::max()));
      } else if (std::strncmp(arg, "--alert-top=", 12) == 0) {
        cfg.top_positions =
            static_cast<int>(cli::ParseInt(arg, arg + 12, 1, kMaxInt));
      } else if (std::strncmp(arg, "--persistence-days=", 19) == 0) {
        cfg.persistence_days =
            static_cast<int>(cli::ParseInt(arg, arg + 19, 1, kMaxInt));
      } else if (std::strncmp(arg, "--cooloff-days=", 15) == 0) {
        cfg.cooloff_days =
            static_cast<int>(cli::ParseInt(arg, arg + 15, 1, kMaxInt));
      } else if (std::strncmp(arg, "--shards=", 9) == 0) {
        cfg.shards = static_cast<int>(cli::ParseInt(arg, arg + 9, 1, 65536));
      } else if (std::strncmp(arg, "--admission=", 12) == 0) {
        cfg.admission = AdmissionPolicyFromString(arg + 12);  // block only
      } else if (std::strncmp(arg, "--ingest=", 9) == 0) {
        cfg.ingest.policy = IngestPolicyFromString(arg + 9);
      } else if (std::strncmp(arg, "--error-budget=", 15) == 0) {
        cfg.ingest.error_budget = cli::ParseDouble(arg, arg + 15, 0.0, 1.0);
      } else if (std::strncmp(arg, "--poll-ms=", 10) == 0) {
        poll_ms = static_cast<int>(cli::ParseInt(arg, arg + 10, 10, 3600000));
      } else if (std::strcmp(arg, "--drain") == 0) {
        drain = true;
      } else if (std::strncmp(arg, "--health-out=", 13) == 0) {
        health_out = arg + 13;
      } else if (std::strncmp(arg, "--health-interval-ms=", 21) == 0) {
        health_interval_ms =
            static_cast<int>(cli::ParseInt(arg, arg + 21, 10, 3600000));
      } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
        metrics_out = arg + 14;
      } else if (std::strncmp(arg, "--listen=", 9) == 0) {
        net::ParseListenSpec(arg + 9, &listen_address, &listen_port);
        listen_enabled = true;
      } else if (std::strcmp(arg, "--version") == 0) {
        const BuildInfo info = GetBuildInfo();
        std::printf("acobe-serve %s (%s, %s)\n", info.version.c_str(),
                    info.build_type.c_str(), info.simd.c_str());
        return 0;
      } else if (std::strcmp(arg, "--help") == 0) {
        Usage();
        return 0;
      } else {
        std::fprintf(stderr, "acobe-serve: unknown argument %s\n", arg);
        Usage();
        return kExitUsage;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "acobe-serve: %s\n", e.what());
    Usage();
    return kExitUsage;
  }
  if (cfg.watch_dir.empty() || cfg.out_dir.empty() ||
      cfg.roster_path.empty()) {
    std::fprintf(stderr,
                 "acobe-serve: --watch, --out and --roster are required\n");
    Usage();
    return kExitUsage;
  }

  InstallShutdownHandler();
  telemetry::EnableMetrics(true);
  if (!health_out.empty()) {
    health::HealthOptions opts;
    opts.path = health_out;
    opts.interval_ms = health_interval_ms;
    opts.tool = "acobe-serve";
    if (!health::StartHealth(opts)) return kExitFailure;
  }

  int exit_code = 0;
  try {
    ServiceSupervisor sup(cfg);
    // The server is declared after `sup` so unwinding stops it (joining
    // every handler thread that captured &sup) before `sup` dies. It
    // starts *before* sup.Start(): /healthz answers 200 and /readyz 503
    // throughout journal replay, flipping to ready only when Start()
    // returns.
    net::HttpServer http;
    if (listen_enabled) {
      RegisterEndpoints(http, sup);
      net::HttpServerConfig hcfg;
      hcfg.address = listen_address;
      hcfg.port = listen_port;
      http.Start(hcfg);
      std::filesystem::create_directories(cfg.out_dir);
      const std::string addr_path =
          (std::filesystem::path(cfg.out_dir) / "http.addr").string();
      std::ofstream addr_out(addr_path, std::ios::trunc);
      addr_out << http.bound_address() << "\n";
      addr_out.close();
      std::fprintf(stderr, "acobe-serve: listening on http://%s\n",
                   http.bound_address().c_str());
    }
    health::SetStage("start");
    sup.Start();
    if (sup.recovered()) {
      std::fprintf(stderr,
                   "acobe-serve: resumed at cycle %llu (%llu alerts so far, "
                   "%d shard(s) quarantined)\n",
                   static_cast<unsigned long long>(sup.cycles()),
                   static_cast<unsigned long long>(sup.alerts_emitted()),
                   sup.quarantined_shards());
    }

    bool stop = false;
    while (!stop) {
      health::SetStage("watch");
      const std::vector<service::CycleStat> reports =
          sup.ProcessAvailableBatches();
      for (const service::CycleStat& r : reports) {
        std::string window = "-";
        if (r.window_end >= r.window_start) {
          window = Date::FromDayNumber(r.window_start).ToString() + ".." +
                   Date::FromDayNumber(r.window_end).ToString();
        }
        std::string scored = "ingest-only";
        if (r.scored_to >= r.scored_from) {
          scored = Date::FromDayNumber(r.scored_from).ToString() + ".." +
                   Date::FromDayNumber(r.scored_to).ToString();
        }
        std::fprintf(stderr,
                     "cycle %llu batch=%s window=%s scored=%s depts=%zu "
                     "alerts=%zu events=%zu dropped=%zu\n",
                     static_cast<unsigned long long>(r.cycle),
                     r.batch.c_str(), window.c_str(), scored.c_str(),
                     r.departments_scored, r.alerts, r.events_admitted,
                     r.events_dropped);
      }
      if (ShutdownRequested()) break;
      if (drain) {
        if (sup.PendingBatches().empty()) break;
        continue;  // more arrived while we were busy
      }
      // Idle: poll for new drops, waking early on a shutdown signal.
      int slept = 0;
      while (slept < poll_ms && !ShutdownRequested()) {
        const int step = std::min(50, poll_ms - slept);
        std::this_thread::sleep_for(std::chrono::milliseconds(step));
        slept += step;
      }
      if (ShutdownRequested()) stop = true;
    }

    const char* reason = ShutdownRequested() ? "signal" : "drained";
    sup.Finish(reason);
    std::fprintf(stderr,
                 "acobe-serve: %s after %llu cycle(s), %llu alert(s) total\n",
                 reason, static_cast<unsigned long long>(sup.cycles()),
                 static_cast<unsigned long long>(sup.alerts_emitted()));
  } catch (const JournalError& e) {
    std::fprintf(stderr, "acobe-serve: %s\n", e.what());
    exit_code = kExitCorruptArtifact;
  } catch (const IngestError& e) {
    std::fprintf(stderr, "acobe-serve: %s\n", e.what());
    exit_code = kExitBadInput;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "acobe-serve: %s\n", e.what());
    exit_code = kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acobe-serve: %s\n", e.what());
    exit_code = kExitFailure;
  }

  health::SetStage("done");
  health::StopHealth();
  if (!telemetry::FlushTelemetry("acobe-serve", metrics_out, "", std::cerr)) {
    exit_code = exit_code ? exit_code : kExitFailure;
  }
  return exit_code;
}
