// acobe-gen: synthesizes a CERT-style dataset and writes it to a
// directory in the CERT dataset's one-CSV-per-log-type layout
// (device.csv, file.csv, http.csv, logon.csv, ldap.csv) plus a
// ground-truth file listing the planted insiders.
//
//   acobe-gen --out=DIR [--users=N] [--departments=N] [--seed=S]
//             [--start=YYYY-MM-DD] [--end=YYYY-MM-DD] [--rate=R]
//             [--scenario1=DEPT:YYYY-MM-DD:DAYS]...
//             [--scenario2=DEPT:YYYY-MM-DD:DAYS]...
//             [--corrupt-rate=R] [--corrupt-seed=S]
//             [--metrics-out=FILE] [--trace-out=FILE]
//             [--health-out=FILE] [--health-interval-ms=N]
//
// One whole-org simulator runs day by day and its rows stream straight
// into the CSVs, each file in stable timestamp order: before day d is
// simulated, every buffered event stamped before d's midnight is
// written, so memory holds about one org-day of events plus the entity
// tables, whatever the org size or date range. DIR is created once the
// scenarios are planted, and every file is written as an AtomicFile
// (common/faults.h): a .tmp sibling, fsynced and renamed into place at
// the end, so an interrupted run leaves no torn CSV.
//
// --corrupt-rate: deterministically corrupt that fraction of data rows
// in the four event CSVs (byte flips, truncated rows, duplicated rows —
// see simdata/fault_injector.h) as they are written, to exercise
// ingestion fault tolerance. ldap.csv and truth.csv are never
// corrupted: they define the population and the answer key, not the
// event feed under test.

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "cli_util.h"
#include "common/faults.h"
#include "common/health.h"
#include "common/shutdown.h"
#include "common/telemetry.h"
#include "common/timeframe.h"
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
    "          [--corrupt-rate=R] [--corrupt-seed=S]\n"
    "          [--metrics-out=FILE] [--trace-out=FILE]\n"
    "          [--health-out=FILE] [--health-interval-ms=N] [--version]\n"
    "  --corrupt-rate=R  corrupt fraction R of event-CSV rows (0..1)\n"
    "  --corrupt-seed=S  fault-injection seed (default 99)\n"
    "  --health-out=F    append live heartbeat JSONL to F (watch with\n"
    "                    acobe-top); crashes dump to F.crash.json\n"
    "  --health-interval-ms=N  heartbeat period (default 1000)\n"
    "  --version         print build identity and exit\n";

/// One event CSV: the rows of the current flush, rendered, and the
/// file they are appended to, corrupted row by row on the way.
struct EventCsv {
  EventCsv(const std::string& out_dir, const char* csv_name)
      : name(csv_name),
        key(Crc32(csv_name)),
        file(out_dir + "/" + csv_name) {}

  /// Appends the rendered rows to the file. The injector numbers data
  /// rows across the whole file, as FaultInjector::Corrupt does.
  void Drain(const sim::FaultInjector* injector) {
    const std::string text = std::move(rows).str();  // leaves rows empty
    if (injector == nullptr) {
      file.stream() << text;
      return;
    }
    std::string out;
    out.reserve(text.size() + text.size() / 16);
    for (std::size_t pos = 0; pos < text.size();) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      injector->CorruptRow(std::string_view(text).substr(pos, eol - pos), key,
                           data_rows++, out, faults);
      out += '\n';
      pos = eol + 1;
    }
    file.stream() << out;
  }

  const char* name;
  std::uint64_t key;  // the injector's per-file fault stream
  AtomicFile file;
  std::ostringstream rows;
  std::size_t data_rows = 0;
  sim::FaultReport faults;
};

/// The simulator's sink. It buffers the four CERT event streams and
/// lands each in its file in stable timestamp order, one day at a time:
/// Flush(midnight(d)) writes every buffered event stamped before d and
/// keeps the rest (a logoff past midnight). The simulator never stamps
/// an event before its day's midnight, so the files equal a stable sort
/// of the whole run's events; an event that breaks that would land out
/// of order, and Consume throws std::logic_error instead. Email events
/// have no CERT file and are dropped.
class DayOrderedCsvWriter : public LogSink {
 public:
  DayOrderedCsvWriter(const EntityCatalog& tables, const std::string& out_dir,
                      const sim::FaultInjector* injector)
      : logon_(out_dir, "logon.csv"),
        device_(out_dir, "device.csv"),
        file_(out_dir, "file.csv"),
        http_(out_dir, "http.csv"),
        sink_(tables, &logon_.rows, &device_.rows, &file_.rows, &http_.rows),
        injector_(injector) {
    // The headers the sink wrote are not data rows: never corrupted.
    for (EventCsv* csv : files()) csv->Drain(nullptr);
  }

  void Consume(const LogonEvent& e) override { Buffer(logons_, e); }
  void Consume(const DeviceEvent& e) override { Buffer(devices_, e); }
  void Consume(const FileEvent& e) override { Buffer(file_events_, e); }
  void Consume(const HttpEvent& e) override { Buffer(http_events_, e); }
  void Consume(const EmailEvent&) override {}
  void Consume(const EnterpriseEvent&) override {}
  void Consume(const ProxyEvent&) override {}

  /// Writes every buffered event stamped before `bound`; from here on
  /// an event stamped before `bound` is an error.
  void Flush(Timestamp bound) {
    WriteBefore(logons_, bound, logon_);
    WriteBefore(devices_, bound, device_);
    WriteBefore(file_events_, bound, file_);
    WriteBefore(http_events_, bound, http_);
    floor_ = bound;
  }

  /// The event files in the CERT layout's write order.
  std::array<EventCsv*, 4> files() {
    return {&device_, &file_, &http_, &logon_};
  }
  std::size_t rows_written() const { return sink_.rows_written(); }

 private:
  template <typename Event>
  void Buffer(std::vector<Event>& events, const Event& e) {
    if (e.ts < floor_) {
      throw std::logic_error("event at " + std::to_string(e.ts) +
                             " stamped before its day's midnight " +
                             std::to_string(floor_));
    }
    events.push_back(e);
  }

  template <typename Event>
  void WriteBefore(std::vector<Event>& events, Timestamp bound,
                   EventCsv& csv) {
    std::stable_sort(
        events.begin(), events.end(),
        [](const Event& a, const Event& b) { return a.ts < b.ts; });
    const auto end = std::partition_point(
        events.begin(), events.end(),
        [bound](const Event& e) { return e.ts < bound; });
    for (auto it = events.begin(); it != end;) {
      const auto chunk_end = it + std::min(end - it, kDrainRows);
      for (; it != chunk_end; ++it) sink_.Consume(*it);
      csv.Drain(injector_);
    }
    events.erase(events.begin(), end);
  }

  // Rows rendered per append to the file: bounds the text buffer.
  static constexpr std::ptrdiff_t kDrainRows = 4096;

  EventCsv logon_, device_, file_, http_;
  CsvEventSink sink_;
  const sim::FaultInjector* injector_;
  Timestamp floor_ = std::numeric_limits<Timestamp>::min();
  std::vector<LogonEvent> logons_;
  std::vector<DeviceEvent> devices_;
  std::vector<FileEvent> file_events_;
  std::vector<HttpEvent> http_events_;
};

void Land(AtomicFile& file) {
  file.Commit();
  std::fprintf(stderr, "wrote %s\n", file.path().c_str());
}

/// Simulates the org day by day into DIR's six files. Throws
/// std::runtime_error when an output cannot be written.
int Generate(const sim::CertSimConfig& config,
             const std::vector<ScenarioArg>& scenarios,
             const std::string& out_dir, double corrupt_rate,
             std::uint64_t corrupt_seed) {
  LogStore tables;  // entity tables and roster only; events stream out
  sim::CertSimulator simulator(config, tables);
  for (const ScenarioArg& s : scenarios) {
    if (!Plant(simulator, s)) return kExitUsage;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "acobe-gen: cannot create %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return kExitFailure;
  }

  sim::FaultInjectorConfig fault_config;
  fault_config.rate = corrupt_rate;
  fault_config.seed = corrupt_seed;
  // At-least-once delivery model: the garbled bytes are followed by a
  // clean retransmission, so permissive ingestion can recover the full
  // event stream (strict mode still aborts on the garble).
  fault_config.redeliver = true;
  const sim::FaultInjector injector(fault_config);

  // Every output is opened (and DIR proven writable) before day 1.
  DayOrderedCsvWriter writer(tables, out_dir,
                             corrupt_rate > 0.0 ? &injector : nullptr);
  AtomicFile ldap(out_dir + "/ldap.csv");
  AtomicFile truth(out_dir + "/truth.csv");
  // The roster and the answer key are fixed once the scenarios are in.
  WriteLdapCsv(tables, ldap.stream());
  truth.stream() << "user,anomaly_start,anomaly_end\n";
  for (const sim::InsiderScenario& sc : simulator.scenarios()) {
    truth.stream() << sc.user_name << ',' << sc.anomaly_start.ToString()
                   << ',' << sc.anomaly_end.ToString() << '\n';
  }

  const std::int64_t days = DaysBetween(config.start, config.end) + 1;
  health::SetStage("simulate", static_cast<std::uint64_t>(days));
  for (Date date = config.start; date <= config.end; date = date.AddDays(1)) {
    if (ShutdownRequested()) {
      // Returning runs the AtomicFile destructors, which remove the
      // .tmp files.
      std::fprintf(stderr,
                   "acobe-gen: shutdown requested during simulate; aborting "
                   "cleanly\n");
      return kExitAborted;
    }
    writer.Flush(MakeTimestamp(date, 0));
    telemetry::TraceSpan sim_span("gen.simulate");
    simulator.RunDay(date, writer);
    health::StageAdvance();
  }
  writer.Flush(std::numeric_limits<Timestamp>::max());
  ACOBE_COUNT("gen.events_simulated", writer.rows_written());
  ACOBE_GAUGE_SET("gen.users", tables.users().size());
  std::fprintf(stderr, "simulated %zu events for %zu users\n",
               writer.rows_written(), tables.users().size());
  if (corrupt_rate > 0.0) {
    for (const EventCsv* csv : writer.files()) {
      ACOBE_COUNT("gen.rows_corrupted", csv->faults.rows_corrupted);
      std::fprintf(stderr, "corrupted %zu/%zu rows in %s\n",
                   csv->faults.rows_corrupted, csv->faults.rows_seen,
                   csv->name);
    }
  }

  health::SetStage("write");
  for (EventCsv* csv : writer.files()) Land(csv->file);
  Land(ldap);
  Land(truth);
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

  cli::Flags flags("acobe-gen", kUsage);
  flags.Str("--out", &out_dir, cli::kRequired)
      .Int("--users", &config.org.users_per_department, 1, 1000000)
      .Int("--departments", &config.org.departments, 1, 10000)
      .U64("--seed", &config.seed)
      .Day("--start", &config.start)
      .Day("--end", &config.end)
      .Real("--rate", &config.profiles.rate_scale, 0.0, 1e6)
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
  if (!obs.Start()) return kExitFailure;

  int code;
  try {
    code = Generate(config, scenarios, out_dir, corrupt_rate, corrupt_seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acobe-gen: %s\n", e.what());
    code = kExitFailure;
  }
  return obs.Finish(code);
}
