// acobe-gen: synthesizes a CERT-style dataset and writes it to a
// directory in the CERT dataset's one-CSV-per-log-type layout
// (device.csv, file.csv, http.csv, logon.csv, ldap.csv) plus a
// ground-truth file listing the planted insiders.
//
//   acobe-gen --out=DIR [--users=N] [--departments=N] [--seed=S]
//             [--start=YYYY-MM-DD] [--end=YYYY-MM-DD] [--rate=R]
//             [--scenario1=DEPT:YYYY-MM-DD:DAYS]...
//             [--scenario2=DEPT:YYYY-MM-DD:DAYS]...
//             [--stream] [--shards=N]
//             [--corrupt-rate=R] [--corrupt-seed=S]
//             [--metrics-out=FILE] [--trace-out=FILE]
//             [--health-out=FILE] [--health-interval-ms=N]
//
// --corrupt-rate: after simulation, deterministically corrupt that
// fraction of data rows in the four event CSVs (byte flips, truncated
// rows, duplicated rows — see simdata/fault_injector.h) to exercise
// ingestion fault tolerance. ldap.csv and truth.csv are never
// corrupted: they define the population and the answer key, not the
// event feed under test.
//
// Out-of-core mode: --stream simulates the organization in department
// shards (--shards, default 16), appending each shard's rows straight
// to the output CSVs instead of materializing every event in memory
// first, so a 100k-user or 1M-user org generates in bounded RSS. The
// org-wide environmental-change schedule is resolved once by a probe
// simulator and shared by every shard, so group-correlated bursts stay
// org-wide; user names, PCs and the ground truth are identical in
// structure to the in-memory path. The sampled events themselves are
// NOT byte-identical to a non-streamed run (each shard draws from its
// own seeded stream, and rows land ordered by day within shard rather
// than globally by timestamp) — both detectors re-order by day on
// ingest, so either layout is valid input. --stream excludes
// --corrupt-rate, which needs the rendered file in memory.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli_util.h"
#include "common/faults.h"
#include "common/health.h"
#include "common/shutdown.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "logs/log_io.h"
#include "simdata/cert_simulator.h"
#include "simdata/fault_injector.h"

using namespace acobe;

namespace {

struct ScenarioArg {
  sim::InsiderScenarioKind kind;
  int department;
  Date start;
  int days;
};

/// Parses "DEPT:YYYY-MM-DD:DAYS".
ScenarioArg ParseScenario(const char* text, sim::InsiderScenarioKind kind) {
  int dept = 0, days = 0;
  char date[16] = {};
  if (std::sscanf(text, "%d:%10[0-9-]:%d", &dept, date, &days) != 3) {
    throw std::invalid_argument("want DEPT:YYYY-MM-DD:DAYS, got '" +
                                std::string(text) + "'");
  }
  return {kind, dept, Date::FromString(date), days};
}

/// Plants one scenario and narrates it. False, after a one-line
/// message, when the simulator refuses it (say, a span outside the
/// simulated range).
bool Plant(sim::CertSimulator& simulator, const ScenarioArg& sc) {
  try {
    const auto& planted =
        simulator.InjectScenario(sc.kind, sc.department, sc.start, sc.days);
    std::fprintf(stderr, "planted scenario %d insider %s in department %d\n",
                 static_cast<int>(sc.kind), planted.user_name.c_str(),
                 sc.department);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acobe-gen: %s\n", e.what());
    return false;
  }
}

constexpr const char kUsage[] =
    "acobe-gen --out=DIR [--users=N] [--departments=N] [--seed=S]\n"
    "          [--start=YYYY-MM-DD] [--end=YYYY-MM-DD] [--rate=R]\n"
    "          [--scenario1=DEPT:DATE:DAYS] [--scenario2=DEPT:DATE:DAYS]\n"
    "          [--stream] [--shards=N]\n"
    "          [--corrupt-rate=R] [--corrupt-seed=S]\n"
    "          [--metrics-out=FILE] [--trace-out=FILE]\n"
    "          [--health-out=FILE] [--health-interval-ms=N] [--version]\n"
    "  --stream          generate in department shards, appending to the\n"
    "                    CSVs as each shard completes (bounded memory)\n"
    "  --shards=N        department shards in --stream mode (default 16)\n"
    "  --corrupt-rate=R  corrupt fraction R of event-CSV rows (0..1)\n"
    "  --corrupt-seed=S  fault-injection seed (default 99)\n"
    "  --health-out=F    append live heartbeat JSONL to F (watch with\n"
    "                    acobe-top); crashes dump to F.crash.json\n"
    "  --health-interval-ms=N  heartbeat period (default 1000)\n"
    "  --version         print build identity and exit\n";

/// One output CSV landed with the same tmp-then-rename discipline as
/// WriteFileAtomic, but held open across the shard loop so rows stream
/// straight to disk instead of being rendered in memory first. An
/// interrupted run leaves only .tmp files behind, never a torn CSV.
class StreamedCsv {
 public:
  explicit StreamedCsv(std::string path)
      : path_(std::move(path)),
        tmp_(path_ + ".tmp." + std::to_string(static_cast<long>(::getpid()))),
        out_(tmp_, std::ios::binary | std::ios::trunc) {}

  ~StreamedCsv() {
    if (!committed_) {
      out_.close();
      std::remove(tmp_.c_str());
    }
  }

  std::ostream& stream() { return out_; }
  bool ok() const { return static_cast<bool>(out_); }
  const std::string& path() const { return path_; }

  /// Flush and rename into place. False on any I/O error.
  bool Commit() {
    out_.flush();
    if (!out_) return false;
    out_.close();
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) return false;
    committed_ = true;
    return true;
  }

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream out_;
  bool committed_ = false;
};

/// The --stream path: per-shard simulation appended to shared CSVs.
int GenerateStreamed(sim::CertSimConfig base,
                     const std::vector<ScenarioArg>& scenarios,
                     const std::string& out_dir, int shards) {
  const int total_depts = base.org.departments;
  const int n_shards = std::max(1, std::min(shards, total_depts));

  // Probe: resolve the org-wide environmental-change schedule once,
  // from the base seed, and hand the result to every shard. Without
  // this each shard's mixed seed would sample its own schedule and the
  // "org-wide" bursts would stop being org-wide.
  {
    sim::CertSimConfig probe_cfg = base;
    probe_cfg.org.departments = 1;
    probe_cfg.org.users_per_department = 1;
    probe_cfg.org.extra_users = 0;
    LogStore probe_store;
    const sim::CertSimulator probe(probe_cfg, probe_store);
    base.env_changes = probe.env_changes();
    base.default_env_changes = false;
  }

  StreamedCsv device(out_dir + "/device.csv");
  StreamedCsv file(out_dir + "/file.csv");
  StreamedCsv http(out_dir + "/http.csv");
  StreamedCsv logon(out_dir + "/logon.csv");
  StreamedCsv ldap(out_dir + "/ldap.csv");
  for (StreamedCsv* csv : {&device, &file, &http, &logon, &ldap}) {
    if (!csv->ok()) {
      std::fprintf(stderr, "acobe-gen: cannot open %s for writing\n",
                   csv->path().c_str());
      return kExitFailure;
    }
  }

  std::vector<sim::InsiderScenario> all_scenarios;
  std::size_t total_events = 0, total_users = 0;
  health::SetStage("simulate", static_cast<std::uint64_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) {
    if (ShutdownRequested()) {
      // The StreamedCsv destructors remove the .tmp files; nothing
      // half-written ever carries the real CSV names.
      std::fprintf(stderr,
                   "acobe-gen: shutdown requested during simulate; aborting "
                   "cleanly\n");
      return kExitAborted;
    }
    health::SetStageDetail("shard " + std::to_string(s + 1) + "/" +
                           std::to_string(n_shards));
    const int lo = static_cast<int>(
        static_cast<std::int64_t>(total_depts) * s / n_shards);
    const int hi = static_cast<int>(
        static_cast<std::int64_t>(total_depts) * (s + 1) / n_shards);
    sim::CertSimConfig cfg = base;
    cfg.org.first_department = lo;
    cfg.org.departments = hi - lo;
    // Users are numbered globally; department 0 carries the extras.
    cfg.org.first_ordinal = lo * base.org.users_per_department +
                            (lo > 0 ? base.org.extra_users : 0);
    // Mix the shard index into the seed: reusing the base seed would
    // restart every shard's per-user RNG forks at user.id 0 and clone
    // the same behavior profiles across shards.
    cfg.seed = base.seed ^ (0x9E3779B97F4A7C15ull * (s + 1));

    LogStore shard_store;
    sim::CertSimulator simulator(cfg, shard_store);
    for (const ScenarioArg& sc : scenarios) {
      if (sc.department < lo || sc.department >= hi) continue;
      // Returning runs the StreamedCsv destructors, which remove the
      // .tmp files.
      if (!Plant(simulator, sc)) return kExitUsage;
    }

    CsvEventSink sink(shard_store, &logon.stream(), &device.stream(),
                      &file.stream(), &http.stream(),
                      /*write_headers=*/s == 0);
    {
      telemetry::TraceSpan sim_span("gen.simulate");
      simulator.Run(sink);
    }
    WriteLdapCsv(shard_store, ldap.stream(), /*write_header=*/s == 0);
    for (const sim::InsiderScenario& sc : simulator.scenarios()) {
      all_scenarios.push_back(sc);
    }
    total_events += sink.rows_written();
    total_users += shard_store.users().size();
    health::StageAdvance();
    std::fprintf(stderr,
                 "shard %d/%d: departments %d..%d, %zu users, %zu events\n",
                 s + 1, n_shards, lo, hi - 1, shard_store.users().size(),
                 sink.rows_written());
  }
  ACOBE_COUNT("gen.events_simulated", total_events);
  ACOBE_GAUGE_SET("gen.users", total_users);
  std::fprintf(stderr, "simulated %zu events for %zu users\n", total_events,
               total_users);

  health::SetStage("write");
  for (StreamedCsv* csv : {&device, &file, &http, &logon, &ldap}) {
    if (!csv->Commit()) {
      std::fprintf(stderr, "acobe-gen: cannot write %s\n",
                   csv->path().c_str());
      return kExitFailure;
    }
    std::fprintf(stderr, "wrote %s\n", csv->path().c_str());
  }
  const std::string truth_path = out_dir + "/truth.csv";
  try {
    WriteFileAtomic(truth_path, [&](std::ostream& out) {
      out << "user,anomaly_start,anomaly_end\n";
      for (const sim::InsiderScenario& sc : all_scenarios) {
        out << sc.user_name << ',' << sc.anomaly_start.ToString() << ','
            << sc.anomaly_end.ToString() << '\n';
      }
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acobe-gen: cannot write %s: %s\n",
                 truth_path.c_str(), e.what());
    return kExitFailure;
  }
  std::fprintf(stderr, "wrote %s\n", truth_path.c_str());
  return 0;
}

/// The default path: simulate the whole org into one sorted store, then
/// render each CSV in memory (optionally corrupted) and land it.
int GenerateInMemory(const sim::CertSimConfig& config,
                     const std::vector<ScenarioArg>& scenarios,
                     const std::string& out_dir, double corrupt_rate,
                     std::uint64_t corrupt_seed) {
  LogStore store;
  sim::CertSimulator simulator(config, store);
  for (const ScenarioArg& s : scenarios) {
    if (!Plant(simulator, s)) return kExitUsage;
  }
  health::SetStage("simulate", 1);
  {
    telemetry::TraceSpan sim_span("gen.simulate");
    simulator.Run(store);
    store.SortChronologically();
  }
  health::StageAdvance();
  ACOBE_COUNT("gen.events_simulated", store.TotalEvents());
  ACOBE_GAUGE_SET("gen.users", store.users().size());
  std::fprintf(stderr, "simulated %zu events for %zu users\n",
               store.TotalEvents(), store.users().size());

  sim::FaultInjectorConfig fault_config;
  fault_config.rate = corrupt_rate;
  fault_config.seed = corrupt_seed;
  // At-least-once delivery model: the garbled bytes are followed by a
  // clean retransmission, so permissive ingestion can recover the full
  // event stream (strict mode still aborts on the garble).
  fault_config.redeliver = true;
  const sim::FaultInjector injector(fault_config);

  // Render in memory, one file at a time, optionally corrupt, then land
  // on disk atomically so an interrupted acobe-gen never leaves a
  // half-written CSV behind.
  health::SetStage("write", 6);  // five CSVs + truth.csv
  auto write = [&](const char* name, bool corruptible,
                   const std::function<void(std::ostream&)>& render) {
    const std::string path = out_dir + "/" + name;
    std::ostringstream rendered;
    {
      ACOBE_SPAN2("logs.write", name);
      render(rendered);
    }
    std::string text = rendered.str();
    if (corruptible && corrupt_rate > 0.0) {
      // Per-file key: each CSV draws an independent fault stream.
      const sim::FaultReport report = injector.Corrupt(text, Crc32(name));
      ACOBE_COUNT("gen.rows_corrupted", report.rows_corrupted);
      std::fprintf(stderr, "corrupted %zu/%zu rows in %s\n",
                   report.rows_corrupted, report.rows_seen, name);
    }
    try {
      WriteFileAtomic(path, [&](std::ostream& out) { out << text; });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "acobe-gen: cannot write %s: %s\n", path.c_str(),
                   e.what());
      std::exit(kExitFailure);
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    health::StageAdvance();
  };
  // Each event CSV is the one stream of a CsvEventSink fed the store.
  auto events = [&](std::ostream* logon, std::ostream* device,
                    std::ostream* file, std::ostream* http) {
    CsvEventSink(store, logon, device, file, http).ConsumeStore(store);
  };
  write("device.csv", /*corruptible=*/true, [&](std::ostream& out) {
    events(nullptr, &out, nullptr, nullptr);
  });
  write("file.csv", /*corruptible=*/true, [&](std::ostream& out) {
    events(nullptr, nullptr, &out, nullptr);
  });
  write("http.csv", /*corruptible=*/true, [&](std::ostream& out) {
    events(nullptr, nullptr, nullptr, &out);
  });
  write("logon.csv", /*corruptible=*/true, [&](std::ostream& out) {
    events(&out, nullptr, nullptr, nullptr);
  });
  write("ldap.csv", /*corruptible=*/false,
        [&](std::ostream& out) { WriteLdapCsv(store, out); });

  // Ground truth for evaluation (never corrupted: it is the answer key).
  {
    const std::string path = out_dir + "/truth.csv";
    try {
      WriteFileAtomic(path, [&](std::ostream& out) {
        out << "user,anomaly_start,anomaly_end\n";
        for (const auto& scenario : simulator.scenarios()) {
          out << scenario.user_name << ',' << scenario.anomaly_start.ToString()
              << ',' << scenario.anomaly_end.ToString() << '\n';
        }
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "acobe-gen: cannot write %s: %s\n", path.c_str(),
                   e.what());
      return kExitFailure;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    health::StageAdvance();
  }

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir;
  sim::CertSimConfig config;
  config.org.departments = 2;
  config.org.users_per_department = 20;
  config.org.extra_users = 0;
  config.profiles.rate_scale = 0.5;
  std::vector<ScenarioArg> scenarios;
  double corrupt_rate = 0.0;
  std::uint64_t corrupt_seed = 99;
  bool stream = false;
  int shards = 16;

  cli::Flags flags("acobe-gen", kUsage);
  flags.Str("--out", &out_dir, cli::kRequired)
      .Int("--users", &config.org.users_per_department, 1, 1000000)
      .Int("--departments", &config.org.departments, 1, 10000)
      .U64("--seed", &config.seed)
      .Day("--start", &config.start)
      .Day("--end", &config.end)
      .Real("--rate", &config.profiles.rate_scale, 0.0, 1e6)
      .Switch("--stream", &stream)
      .Int("--shards", &shards, 1, 65536)
      .Real("--corrupt-rate", &corrupt_rate, 0.0, 1.0)
      .U64("--corrupt-seed", &corrupt_seed)
      .Value("--scenario1",
             [&](const char* v) {
               scenarios.push_back(
                   ParseScenario(v, sim::InsiderScenarioKind::kScenario1));
             })
      .Value("--scenario2", [&](const char* v) {
        scenarios.push_back(
            ParseScenario(v, sim::InsiderScenarioKind::kScenario2));
      });
  cli::Observability obs(
      flags, cli::kMetricsOut | cli::kTraceOut | cli::kHealthOut);
  flags.Parse(argc, argv);
  for (const ScenarioArg& s : scenarios) {
    if (s.department < 0 || s.department >= config.org.departments) {
      std::fprintf(stderr, "acobe-gen: scenario department %d out of range\n",
                   s.department);
      return kExitUsage;
    }
  }
  if (stream && corrupt_rate > 0.0) {
    flags.UsageError(
        "--corrupt-rate is not supported with --stream (fault injection "
        "needs the rendered file in memory)");
  }
  if (!obs.Start()) return kExitFailure;

  const int code =
      stream ? GenerateStreamed(config, scenarios, out_dir, shards)
             : GenerateInMemory(config, scenarios, out_dir, corrupt_rate,
                                corrupt_seed);
  // The final heartbeat lands in every outcome, so a supervisor
  // watching the health file sees how the run ended.
  return obs.Finish(code == 0                ? "done"
                    : code == kExitAborted ? "aborted"
                                           : "failed",
                    code);
}
