// acobe-detect: runs ACOBE over a directory of CERT-layout CSV logs
// (as produced by acobe-gen or converted from the real CERT dataset)
// and prints the ordered investigation list per department.
//
//   acobe-detect --in=DIR --train-end=YYYY-MM-DD [--test-end=YYYY-MM-DD]
//                [--omega=N] [--epochs=N] [--votes=N] [--top=N]
//                [--threads=N] [--ingest=strict|permissive|quarantine]
//                [--error-budget=R] [--quarantine-dir=DIR]
//                [--stream] [--shards=N] [--spool-dir=DIR]
//                [--checkpoint-dir=DIR] [--resume]
//                [--explain-out=FILE] [--ledger-out=FILE]
//                [--metrics-out=FILE] [--trace-out=FILE]
//                [--health-out=FILE] [--health-interval-ms=N]
//                [--prom-out=FILE] [--version]
//
// --threads: worker threads for CSV parsing and detection (0 = the
// ACOBE_THREADS environment variable, else hardware concurrency). Above
// one thread, departments detect in parallel, one per worker, each
// single-threaded, while this thread replays the next shard.
// Results are identical for any thread count, and identical with
// telemetry on or off.
//
// Data plane: ldap.csv is read first (its departments route users to
// shards), then each event CSV is read once and its packed events are
// spooled into per-shard files (logs/spool.h). Ingest holds at most a
// fixed 16 MiB of packed events plus one spare buffer: a full shard
// buffer is day-sorted and written by the spooler's writer thread while
// parsing goes on. Each shard is then replayed into per-department
// cubes, each detected on its own (DetectDepartments, core/detector.h).
// At most two shards are resident at once — the one detecting and the
// one replaying — so peak memory is bounded by the largest two shards'
// cubes and models (plus the fixed spool buffers), not by the input.
// Results are emitted in the canonical LDAP department order, so
// stdout, --explain-out and --ledger-out are byte-identical for any
// --shards value. --shards (default 8) tunes the memory/seek tradeoff;
// --spool-dir (default DIR/.acobe-spool) places the spool files, which
// are removed on exit.
// --stream is accepted and does nothing, so existing scripts keep
// working.
//
// Fault tolerance: --ingest=permissive skips malformed CSV rows under a
// bounded error budget (--error-budget, default 5%) instead of aborting
// on the first one; quarantine additionally copies each rejected raw
// row to <quarantine-dir>/<log>.rejected. Both imply
// consecutive-duplicate suppression (redelivered log rows).
// --checkpoint-dir saves each aspect's trained autoencoder as it
// completes; with --resume, a re-run after an interruption skips the
// already-trained aspects and reproduces the uninterrupted output
// bit-exactly.
//
// Provenance: --explain-out writes per-detection attribution as JSON
// ("acobe.explain.v1": for every listed user, the matrix cells —
// aspect, measurement, time-frame, enclosed day, individual vs group —
// that drove their reconstruction error) and prints the same as
// indented text under each department's list; --ledger-out writes the
// run ledger ("acobe.ledger.v1" JSONL: manifest with config/dataset
// digest/build identity, per-aspect training summaries, per-department
// detections with score digests, quality metrics when DIR/truth.csv
// exists, score drift vs the training window). Either flag enables
// attribution + drift; both off costs nothing and the scores are
// bit-identical either way. Render saved artifacts with acobe-explain.
//
// Exit codes: 0 ok, 1 runtime failure, 2 usage, 3 malformed input,
// 4 corrupt/mismatched artifact.
//
// Telemetry: a run report always lands on stderr; --metrics-out writes
// the metrics registry as JSON (counters, per-phase span timings,
// per-aspect per-epoch losses, the process peak RSS), --trace-out
// writes a chrome://tracing / Perfetto trace with spans attributed to
// worker threads.
//
// Live health: --health-out appends an "acobe.health.v1" JSON line
// every --health-interval-ms (default 1000) — pipeline stage with
// progress and ETA, RSS, CPU, counter rates, span self-profile — and
// installs the crash flight recorder (fatal signals dump the active
// span stacks and last heartbeat to <health-out>.crash.json). Watch
// live with `acobe-top <health-out>`. --prom-out writes the final
// metrics in Prometheus text format. All of it is observational:
// stdout, --explain-out and --ledger-out are byte-identical with the
// health plane on or off.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_util.h"
#include "common/faults.h"
#include "common/health.h"
#include "common/shutdown.h"
#include "common/ledger.h"
#include "common/resource.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "common/version.h"
#include "core/detector.h"
#include "eval/report.h"
#include "features/cert_features.h"
#include "logs/log_io.h"
#include "logs/spool.h"
#include "nn/gemm.h"

using namespace acobe;

namespace {

// A belt-and-braces cap on the day span of the input (the timestamp
// plausibility window, kPlausibleTsMin..kPlausibleTsMax, is ~43.8k
// days).
constexpr int kMaxDaySpan = 44000;

// Packed-event buffer budget for the spooler (pass A) and its replay
// cursors (pass B). Fixed: full buffers spill on the spooler's writer
// thread while parsing goes on, so a larger budget buys no speed, only
// resident memory (pages become resident as the buffers fill).
constexpr std::size_t kSpoolBufferBytes = 16u << 20;

void Usage() {
  std::printf(
      "acobe-detect --in=DIR --train-end=YYYY-MM-DD\n"
      "             [--test-end=YYYY-MM-DD] [--omega=N] [--epochs=N]\n"
      "             [--votes=N] [--top=N] [--threads=N]\n"
      "             [--ingest=strict|permissive|quarantine]\n"
      "             [--error-budget=R] [--quarantine-dir=DIR]\n"
      "             [--stream] [--shards=N] [--spool-dir=DIR]\n"
      "             [--checkpoint-dir=DIR] [--resume]\n"
      "             [--explain-out=FILE] [--ledger-out=FILE]\n"
      "             [--metrics-out=FILE] [--trace-out=FILE]\n"
      "             [--health-out=FILE] [--health-interval-ms=N]\n"
      "             [--prom-out=FILE] [--version]\n"
      "  --omega=N           deviation window, days (>= 2; default 14)\n"
      "  --epochs=N          training epochs per aspect (>= 1; default 25)\n"
      "  --votes=N           critic votes (>= 1; default 2)\n"
      "  --top=N             list entries printed per department (>= 1)\n"
      "  --threads=N         worker threads for CSV parsing and detection\n"
      "                      (0 = ACOBE_THREADS/hardware)\n"
      "  --ingest=POLICY     malformed-row policy (default strict)\n"
      "  --error-budget=R    abort past this rejected-row fraction (def 0.05)\n"
      "  --quarantine-dir=D  write rejected raw rows under D\n"
      "  --stream            accepted for compatibility; does nothing\n"
      "  --shards=N          department shards spooled; at most two\n"
      "                      are replayed into memory at once (def 8)\n"
      "  --spool-dir=D       spool-file directory (def DIR/.acobe-spool)\n"
      "  --checkpoint-dir=D  save per-aspect models under D as they train\n"
      "  --resume            reuse matching checkpoints from a killed run\n"
      "  --explain-out=F     write per-detection attribution JSON to F\n"
      "  --ledger-out=F      write the run-ledger JSONL to F\n"
      "  --metrics-out=F     write telemetry metrics JSON to F\n"
      "  --trace-out=F       write chrome://tracing trace JSON to F\n"
      "  --health-out=F      append live heartbeat JSONL to F; a crash\n"
      "                      dumps flight data to F.crash.json\n"
      "  --health-interval-ms=N  heartbeat period (default 1000)\n"
      "  --prom-out=F        write final metrics as Prometheus text to F\n"
      "  --version           print build identity and exit\n"
      "exit codes: 0 ok, 1 failure, 2 usage, 3 bad input, 4 corrupt "
      "artifact\n");
}

/// Each input CSV's read stats (for its byte count and CRC), by name.
using FileDigests = std::map<std::string, IngestStats>;

/// Wires the per-file quarantine sink into one read. Returns false when
/// the file is absent; runs `read` with the final options otherwise,
/// and records the file's byte count and CRC in `digests`.
template <typename ReadFn>
bool ReadOneCsv(const std::string& dir, const std::string& name,
                IngestOptions options, const std::string& quarantine_dir,
                IngestStats& total, FileDigests& digests, ReadFn&& read) {
  health::SetStageDetail(name);
  std::ifstream in(dir + "/" + name);
  if (!in) {
    health::StageAdvance();  // an absent file is trivially done
    return false;
  }
  std::ofstream sink;
  if (options.policy == IngestPolicy::kQuarantine && !quarantine_dir.empty()) {
    sink.open(quarantine_dir + "/" + name + ".rejected");
    options.quarantine = &sink;
  }
  const IngestStats stats = read(in, options);
  if (stats.rows_rejected > 0) {
    std::fprintf(stderr,
                 "acobe-detect: %s: rejected %zu/%zu rows (first: %s)\n",
                 name.c_str(), stats.rows_rejected, stats.rows_read,
                 stats.first_error.c_str());
  }
  total.Merge(stats);
  digests[name] = stats;
  health::StageAdvance();
  return true;
}

/// Checkpoint directories are per department; department names come
/// from the data, so squash anything path-hostile.
std::string SanitizePathComponent(const std::string& name) {
  std::string out;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? "_" : out;
}

/// The ledger's dataset digest: the CRC-32 of the input CSVs' raw
/// bytes concatenated in kCertEventCsvs order, then ldap.csv, folded
/// from the CRCs the readers took while parsing. Absent files
/// contribute nothing.
std::uint32_t DigestDataset(const FileDigests& digests) {
  std::uint32_t crc = 0;
  auto fold = [&](const char* name) {
    const auto it = digests.find(name);
    if (it == digests.end()) return;
    crc = Crc32Combine(crc, it->second.bytes_crc, it->second.bytes_read);
  };
  for (const CertEventCsv& csv : kCertEventCsvs) fold(csv.name);
  fold("ldap.csv");
  return crc;
}

/// DIR/truth.csv ("user,anomaly_start,anomaly_end", acobe-gen's answer
/// key) as name -> anomaly window. Empty map when the file is absent;
/// malformed rows are skipped (truth is optional metadata, not input).
std::map<std::string, std::pair<Date, Date>> LoadTruth(
    const std::string& dir) {
  std::map<std::string, std::pair<Date, Date>> truth;
  std::ifstream in(dir + "/truth.csv");
  if (!in) return truth;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = c1 == std::string::npos ? c1 : line.find(',', c1 + 1);
    if (c2 == std::string::npos) continue;
    try {
      truth.emplace(line.substr(0, c1),
                    std::make_pair(Date::FromString(
                                       line.substr(c1 + 1, c2 - c1 - 1)),
                                   Date::FromString(line.substr(c2 + 1))));
    } catch (const std::invalid_argument&) {
      continue;
    }
  }
  return truth;
}

/// Writes a quoted, escaped JSON string literal (JsonEscape itself
/// emits only the escaped content, not the quotes).
void JsonStr(std::ostream& out, std::string_view s) {
  out << '"';
  telemetry::JsonEscape(out, s);
  out << '"';
}

/// The build identity stamped into --version, the explain report and the
/// ledger manifest: GetBuildInfo() plus the NN kernel family that
/// produced every score.
BuildInfo DetectBuildInfo() {
  BuildInfo info = GetBuildInfo();
  info.nn_backend = nn::kKernelFamily;
  return info;
}

/// One department's full output, retained for the emit stage, the
/// explain report and the ledger. Results are buffered and emitted in
/// canonical LDAP department order, which is what makes stdout and the
/// artifacts byte-identical for any shard layout.
struct DeptResult {
  std::string name;
  DetectionOutput out;
};

/// Feature name for an attributed cell (the cell's feature_pos indexes
/// the aspect's feature list, not the catalog).
std::string CellFeatureName(const FeatureCatalog& catalog,
                            const std::string& aspect_name, int feature_pos) {
  const int ai = catalog.AspectIndex(aspect_name);
  if (ai >= 0) {
    const std::vector<int>& indices = catalog.aspects()[ai].feature_indices;
    if (feature_pos >= 0 && feature_pos < static_cast<int>(indices.size())) {
      return catalog.feature(indices[feature_pos]).name;
    }
  }
  return "feature" + std::to_string(feature_pos);
}

void WriteAttributionJson(std::ostream& out, const UserAttribution& ua,
                          const std::string& user_name,
                          const FeatureCatalog& catalog,
                          const TimeFramePartition& partition, Date start) {
  out << "{\"user\":";
  JsonStr(out, user_name);
  out << ",\"priority\":";
  telemetry::JsonNumber(out, ua.priority);
  out << ",\"aspects\":[";
  for (std::size_t a = 0; a < ua.aspects.size(); ++a) {
    const AspectAttribution& aa = ua.aspects[a];
    if (a) out << ',';
    out << "{\"aspect\":";
    JsonStr(out, aa.aspect_name);
    out << ",\"peak_day\":";
    JsonStr(out, start.AddDays(aa.peak_day).ToString());
    out << ",\"peak_score\":";
    telemetry::JsonNumber(out, aa.peak_score);
    out << ",\"total_error\":";
    telemetry::JsonNumber(out, aa.total_error);
    out << ",\"group_error_fraction\":";
    telemetry::JsonNumber(out, aa.group_error_fraction);
    out << ",\"cells\":[";
    for (std::size_t c = 0; c < aa.cells.size(); ++c) {
      const AttributedCell& cell = aa.cells[c];
      if (c) out << ',';
      out << "{\"feature\":";
      JsonStr(
          out, CellFeatureName(catalog, aa.aspect_name, cell.feature_pos));
      out << ",\"frame\":";
      JsonStr(out, partition.FrameLabel(cell.frame));
      out << ",\"day\":";
      JsonStr(out, start.AddDays(cell.day).ToString());
      out << ",\"component\":\"" << (cell.group ? "group" : "individual")
          << "\",\"error\":";
      telemetry::JsonNumber(out, cell.error);
      out << ",\"share\":";
      telemetry::JsonNumber(out, cell.share);
      out << ",\"input\":";
      telemetry::JsonNumber(out, cell.input);
      out << ",\"reconstruction\":";
      telemetry::JsonNumber(out, cell.reconstruction);
      if (cell.has_group_input) {
        out << ",\"group_input\":";
        telemetry::JsonNumber(out, cell.group_input);
      }
      out << '}';
    }
    out << "]}";
  }
  out << "]}";
}

void WriteDriftJson(std::ostream& out, const std::vector<AspectDrift>& drift) {
  out << '[';
  for (std::size_t i = 0; i < drift.size(); ++i) {
    if (i) out << ',';
    out << "{\"aspect\":";
    JsonStr(out, drift[i].aspect_name);
    out << ",\"alert\":" << (drift[i].alert ? "true" : "false")
        << ",\"shifts\":[";
    for (std::size_t s = 0; s < drift[i].shifts.size(); ++s) {
      const QuantileShift& shift = drift[i].shifts[s];
      if (s) out << ',';
      out << "{\"q\":";
      telemetry::JsonNumber(out, shift.q);
      out << ",\"reference\":";
      telemetry::JsonNumber(out, shift.reference);
      out << ",\"current\":";
      telemetry::JsonNumber(out, shift.current);
      out << ",\"rel_shift\":";
      telemetry::JsonNumber(out, shift.rel_shift);
      out << ",\"alert\":" << (shift.alert ? "true" : "false") << '}';
    }
    out << "]}";
  }
  out << ']';
}

/// The whole explain report ("acobe.explain.v1"): build identity, the
/// dataset/split, and per department the printed list plus every
/// attribution and the drift table. acobe-explain renders this without
/// recomputing anything.
void WriteExplainJson(std::ostream& out, const std::vector<DeptResult>& results,
                      const EntityCatalog& tables,
                      const FeatureCatalog& catalog,
                      const TimeFramePartition& partition, Date start,
                      const std::string& in_dir, std::uint32_t dataset_digest,
                      int train_end, int test_end, int top) {
  const BuildInfo build = DetectBuildInfo();
  out << "{\"schema\":\"acobe.explain.v1\",\"build\":{\"version\":";
  JsonStr(out, build.version);
  out << ",\"build_type\":";
  JsonStr(out, build.build_type);
  out << ",\"simd\":";
  JsonStr(out, build.simd);
  out << ",\"telemetry\":" << (build.telemetry ? "true" : "false")
      << ",\"nn_backend\":";
  JsonStr(out, build.nn_backend);
  out << "},\"dataset\":{\"dir\":";
  JsonStr(out, in_dir);
  out << ",\"digest\":" << dataset_digest << ",\"start\":";
  JsonStr(out, start.ToString());
  out << ",\"train_end\":";
  JsonStr(out, start.AddDays(train_end).ToString());
  out << ",\"test_end\":";
  JsonStr(out, start.AddDays(test_end).ToString());
  out << "},\"departments\":[";
  for (std::size_t r = 0; r < results.size(); ++r) {
    const DeptResult& result = results[r];
    if (r) out << ',';
    out << "{\"name\":";
    JsonStr(out, result.name);
    out << ",\"members\":" << result.out.members.size()
        << ",\"score_digest\":" << result.out.grid.Digest()
        << ",\"degraded_aspects\":[";
    for (std::size_t i = 0; i < result.out.degraded_aspects.size(); ++i) {
      if (i) out << ',';
      JsonStr(out, result.out.degraded_aspects[i]);
    }
    out << "],\"list\":[";
    const std::size_t shown = std::min<std::size_t>(
        result.out.list.size(), static_cast<std::size_t>(top));
    for (std::size_t i = 0; i < shown; ++i) {
      const UserId user = result.out.members[result.out.list[i].user_idx];
      if (i) out << ',';
      out << "{\"rank\":" << i + 1 << ",\"user\":";
      JsonStr(out, tables.users().NameOf(user));
      out << ",\"priority\":";
      telemetry::JsonNumber(out, result.out.list[i].priority);
      out << '}';
    }
    out << "],\"attributions\":[";
    for (std::size_t i = 0; i < result.out.attributions.size(); ++i) {
      const UserAttribution& ua = result.out.attributions[i];
      if (i) out << ',';
      WriteAttributionJson(
          out, ua, tables.users().NameOf(result.out.members[ua.user_idx]),
          catalog, partition, start);
    }
    out << "],\"drift\":";
    WriteDriftJson(out, result.out.drift);
    out << '}';
  }
  out << "]}\n";
}

/// The same attribution, human-readable, indented under the printed
/// list: per aspect the peak day and its top cells.
void PrintAttribution(const UserAttribution& ua, const std::string& user_name,
                      const FeatureCatalog& catalog,
                      const TimeFramePartition& partition, Date start) {
  std::printf("     %s:\n", user_name.c_str());
  for (const AspectAttribution& aa : ua.aspects) {
    std::printf("       %-8s peak %s score %.3f (group share %.0f%%)\n",
                aa.aspect_name.c_str(),
                start.AddDays(aa.peak_day).ToString().c_str(), aa.peak_score,
                100.0 * aa.group_error_fraction);
    for (const AttributedCell& cell : aa.cells) {
      std::string note;
      if (cell.group) {
        note = " [group]";
      } else if (cell.has_group_input) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), " (group at %.2f)", cell.group_input);
        note = buf;
      }
      std::printf("         %-18s %s %s err %.4f (%2.0f%%) val %.2f%s\n",
                  CellFeatureName(catalog, aa.aspect_name, cell.feature_pos)
                      .c_str(),
                  partition.FrameLabel(cell.frame).c_str(),
                  start.AddDays(cell.day).ToString().c_str(), cell.error,
                  100.0 * cell.share, cell.input, note.c_str());
    }
  }
}

/// Emit stage: the printed list and attributions for one department.
void PrintDeptResult(const DeptResult& result, const EntityCatalog& tables,
                     const FeatureCatalog& catalog,
                     const TimeFramePartition& partition, Date start,
                     int top) {
  const DetectionOutput& out = result.out;
  std::printf("\n=== %s (%zu users) ===\n", result.name.c_str(),
              out.members.size());
  for (std::size_t i = 0;
       i < out.list.size() && i < static_cast<std::size_t>(top); ++i) {
    const UserId user = out.members[out.list[i].user_idx];
    std::printf("%3zu. %-10s priority %.0f\n", i + 1,
                tables.users().NameOf(user).c_str(), out.list[i].priority);
  }
  if (!out.attributions.empty()) {
    std::printf("\n  why (top reconstruction-error cells):\n");
    for (const UserAttribution& ua : out.attributions) {
      PrintAttribution(ua, tables.users().NameOf(out.members[ua.user_idx]),
                       catalog, partition, start);
    }
  }
}

/// Emit stage: one department's ledger events (training summaries,
/// detection, drift, quality vs truth).
void AppendDeptLedger(RunLedger& ledger, const DeptResult& result,
                      const EntityCatalog& tables, int top,
                      const std::map<std::string, std::pair<Date, Date>>&
                          truth) {
  const DetectionOutput& out = result.out;
  for (const AspectTrainSummary& summary : out.train_summaries) {
    LedgerEvent event("aspect_trained");
    event.Str("department", result.name)
        .Str("aspect", summary.name)
        .Int("attempts", summary.attempts)
        .Bool("resumed", summary.resumed)
        .Bool("ok", summary.ok)
        .Int("epochs", summary.epochs)
        .Num("final_loss", summary.final_loss)
        .NumList("epoch_losses", summary.epoch_losses);
    ledger.Append(event);
  }
  LedgerEvent detection("detection");
  detection.Str("department", result.name)
      .Int("members", static_cast<std::int64_t>(out.members.size()))
      .Int("score_digest", out.grid.Digest())
      .StrList("degraded_aspects", out.degraded_aspects);
  std::ostringstream listed;
  listed << '[';
  const std::size_t shown =
      std::min<std::size_t>(out.list.size(), static_cast<std::size_t>(top));
  for (std::size_t i = 0; i < shown; ++i) {
    if (i) listed << ',';
    listed << "{\"user\":";
    JsonStr(listed, tables.users().NameOf(out.members[out.list[i].user_idx]));
    listed << ",\"priority\":";
    telemetry::JsonNumber(listed, out.list[i].priority);
    listed << '}';
  }
  listed << ']';
  detection.Raw("list", listed.str());
  ledger.Append(detection);

  if (!out.drift.empty()) {
    std::ostringstream drift_json;
    WriteDriftJson(drift_json, out.drift);
    LedgerEvent drift("drift");
    drift.Str("department", result.name).Raw("aspects", drift_json.str());
    ledger.Append(drift);
  }
  if (!truth.empty()) {
    std::vector<eval::RankedUser> ranked;
    ranked.reserve(out.list.size());
    for (const InvestigationEntry& entry : out.list) {
      const UserId user = out.members[entry.user_idx];
      eval::RankedUser r;
      r.user = user;
      r.priority = entry.priority;
      r.positive = truth.count(tables.users().NameOf(user)) > 0;
      ranked.push_back(r);
    }
    static const std::size_t kCutoffs[] = {1, 3, 5, 10};
    LedgerEvent quality =
        eval::MakeQualityEvent(result.name, std::move(ranked), kCutoffs);
    ledger.Append(quality);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_dir;
  std::string train_end_text, test_end_text;
  std::string metrics_out, trace_out;
  std::string explain_out, ledger_out;
  std::string health_out, prom_out;
  std::string quarantine_dir, checkpoint_dir, spool_dir;
  int omega = 14, epochs = 25, votes = 2, top = 10, threads = 0;
  int shards = 8, health_interval_ms = 1000;
  bool resume = false;
  IngestOptions ingest;
  ingest.ts_min = kPlausibleTsMin;
  ingest.ts_max = kPlausibleTsMax;

  const int kMaxInt = std::numeric_limits<int>::max();
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--in=", 5) == 0) {
        in_dir = arg + 5;
      } else if (std::strncmp(arg, "--train-end=", 12) == 0) {
        train_end_text = arg + 12;
      } else if (std::strncmp(arg, "--test-end=", 11) == 0) {
        test_end_text = arg + 11;
      } else if (std::strncmp(arg, "--omega=", 8) == 0) {
        omega = static_cast<int>(cli::ParseInt(arg, arg + 8, 2, kMaxInt));
      } else if (std::strncmp(arg, "--epochs=", 9) == 0) {
        epochs = static_cast<int>(cli::ParseInt(arg, arg + 9, 1, kMaxInt));
      } else if (std::strncmp(arg, "--votes=", 8) == 0) {
        votes = static_cast<int>(cli::ParseInt(arg, arg + 8, 1, kMaxInt));
      } else if (std::strncmp(arg, "--top=", 6) == 0) {
        top = static_cast<int>(cli::ParseInt(arg, arg + 6, 1, kMaxInt));
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        threads = static_cast<int>(cli::ParseInt(arg, arg + 10, 0, kMaxInt));
      } else if (std::strncmp(arg, "--ingest=", 9) == 0) {
        ingest.policy = IngestPolicyFromString(arg + 9);
      } else if (std::strncmp(arg, "--error-budget=", 15) == 0) {
        ingest.error_budget = cli::ParseDouble(arg, arg + 15, 0.0, 1.0);
      } else if (std::strncmp(arg, "--quarantine-dir=", 17) == 0) {
        quarantine_dir = arg + 17;
      } else if (std::strcmp(arg, "--stream") == 0) {
        // Accepted and ignored: spooling is the only data plane.
      } else if (std::strncmp(arg, "--shards=", 9) == 0) {
        shards = static_cast<int>(cli::ParseInt(arg, arg + 9, 1, 65536));
      } else if (std::strncmp(arg, "--spool-dir=", 12) == 0) {
        spool_dir = arg + 12;
      } else if (std::strncmp(arg, "--checkpoint-dir=", 17) == 0) {
        checkpoint_dir = arg + 17;
      } else if (std::strcmp(arg, "--resume") == 0) {
        resume = true;
      } else if (std::strncmp(arg, "--explain-out=", 14) == 0) {
        explain_out = arg + 14;
      } else if (std::strncmp(arg, "--ledger-out=", 13) == 0) {
        ledger_out = arg + 13;
      } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
        metrics_out = arg + 14;
      } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
        trace_out = arg + 12;
      } else if (std::strncmp(arg, "--health-out=", 13) == 0) {
        health_out = arg + 13;
      } else if (std::strncmp(arg, "--health-interval-ms=", 21) == 0) {
        health_interval_ms =
            static_cast<int>(cli::ParseInt(arg, arg + 21, 10, 3600000));
      } else if (std::strncmp(arg, "--prom-out=", 11) == 0) {
        prom_out = arg + 11;
      } else if (std::strcmp(arg, "--version") == 0) {
        cli::PrintVersionInfo("acobe-detect", DetectBuildInfo());
        return 0;
      } else if (std::strcmp(arg, "--help") == 0) {
        Usage();
        return 0;
      } else {
        std::fprintf(stderr, "acobe-detect: unknown argument '%s'\n", arg);
        Usage();
        return kExitUsage;
      }
    }
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "acobe-detect: %s\n", e.what());
    Usage();
    return kExitUsage;
  } catch (const std::invalid_argument& e) {  // IngestPolicyFromString
    std::fprintf(stderr, "acobe-detect: %s\n", e.what());
    Usage();
    return kExitUsage;
  }
  if (in_dir.empty() || train_end_text.empty()) {
    std::fprintf(stderr, "acobe-detect: --in and --train-end are required\n");
    Usage();
    return kExitUsage;
  }
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "acobe-detect: --resume requires --checkpoint-dir\n");
    Usage();
    return kExitUsage;
  }
  // Redelivered (duplicated) rows are a fault the permissive policies
  // recover from, so they imply consecutive-duplicate suppression.
  if (ingest.policy != IngestPolicy::kStrict) {
    ingest.drop_consecutive_duplicates = true;
  }
  ingest.threads = threads;
  if (ingest.policy == IngestPolicy::kQuarantine && !quarantine_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(quarantine_dir, ec);
    if (ec) {
      std::fprintf(stderr, "acobe-detect: cannot create %s: %s\n",
                   quarantine_dir.c_str(), ec.message().c_str());
      return kExitFailure;
    }
  }
  if (spool_dir.empty()) spool_dir = in_dir + "/.acobe-spool";
  // Provenance is driven by the output flags: asking for an explain
  // report or a ledger turns attribution + drift on; neither flag, and
  // the detection path runs exactly as before (bit-identical scores).
  const bool provenance = !explain_out.empty() || !ledger_out.empty();

  InstallShutdownHandler();
  telemetry::EnableMetrics(true);
  telemetry::EnableTracing(!trace_out.empty());
  if (!health_out.empty()) {
    health::HealthOptions health_opts;
    health_opts.path = health_out;
    health_opts.interval_ms = health_interval_ms;
    health_opts.tool = "acobe-detect";
    if (!health::StartHealth(health_opts)) return kExitFailure;
  }
  health::SetStage("ingest", 5);  // the five CERT CSVs

  // --- ingest (pass A) -----------------------------------------------------
  // Only the entity catalog stays resident; packed events spool to
  // per-shard files.
  EntityCatalog tables;
  std::vector<std::string> departments;  // canonical (LDAP) report order
  std::unique_ptr<ShardSpooler> spooler;
  IngestStats ingest_stats;
  FileDigests file_digests;

  // Cooperative SIGINT/SIGTERM unwind, polled at loop boundaries: drop
  // the spool shard files, land a run_aborted ledger event (with a
  // manifest, so the aborted artifact still identifies its build), let
  // the final heartbeat record where the run stopped, and exit with
  // the dedicated abort code.
  auto abort_run = [&](const char* where) -> int {
    std::fprintf(stderr,
                 "acobe-detect: shutdown requested during %s; aborting "
                 "cleanly\n",
                 where);
    if (spooler) spooler->Remove();
    if (!ledger_out.empty()) {
      RunLedger aborted;
      aborted.Append(MakeManifestEvent("acobe-detect", DetectBuildInfo()));
      LedgerEvent ev("run_aborted");
      ev.Str("reason", "signal")
          .Int("signal", ShutdownSignal())
          .Str("stage", where)
          .Raw("stages", health::StageTimesJson());
      aborted.Append(ev);
      if (aborted.WriteFile(ledger_out)) {
        std::fprintf(stderr, "wrote %s (aborted)\n", ledger_out.c_str());
      } else {
        std::fprintf(stderr, "acobe-detect: cannot write %s\n",
                     ledger_out.c_str());
      }
    }
    health::SetStage("aborted");
    health::StopHealth();
    telemetry::FlushTelemetry("acobe-detect", metrics_out, trace_out,
                              std::cerr);
    return kExitAborted;
  };

  // Spool I/O failure: the spooler throws filesystem_error or
  // runtime_error when it cannot create, write or read back a shard
  // file. Returning unwinds ~ShardSpooler, which deletes whatever spool
  // files exist.
  auto spool_failure = [&](const std::runtime_error& e) {
    std::fprintf(stderr,
                 "acobe-detect: cannot spool under %s: %s (use "
                 "--spool-dir=DIR to spool elsewhere)\n",
                 spool_dir.c_str(), e.what());
    return kExitFailure;
  };

  try {
    // The roster first: departments define the shard routing. Always
    // strict — a dropped ldap row silently deletes a user.
    IngestOptions roster = ingest;
    roster.policy = IngestPolicy::kStrict;
    const bool have_roster = ReadOneCsv(
        in_dir, "ldap.csv", roster, quarantine_dir, ingest_stats,
        file_digests, [&](std::istream& in, const IngestOptions& opts) {
          return ReadLdapCsv(in, tables, opts, "ldap.csv");
        });
    if (!have_roster || tables.ldap().empty()) {
      std::fprintf(stderr, "no readable logs under %s\n", in_dir.c_str());
      return kExitBadInput;
    }
    departments = tables.Departments();
    const int n_shards =
        std::max(1, std::min(shards, static_cast<int>(departments.size())));
    spooler = std::make_unique<ShardSpooler>(spool_dir, n_shards,
                                             kSpoolBufferBytes);
    std::map<std::string, int> dept_shard;
    for (std::size_t d = 0; d < departments.size(); ++d) {
      dept_shard[departments[d]] = static_cast<int>(d) % n_shards;
    }
    for (const LdapRecord& r : tables.ldap()) {
      spooler->AssignUser(r.user, dept_shard[r.department]);
    }
    bool any = false;
    for (const CertEventCsv& csv : kCertEventCsvs) {
      any |= ReadOneCsv(
          in_dir, csv.name, ingest, quarantine_dir, ingest_stats,
          file_digests, [&](std::istream& in, const IngestOptions& opts) {
            return csv.read(in, tables, *spooler, opts, csv.name);
          });
    }
    if (!any) {
      std::fprintf(stderr, "no readable logs under %s\n", in_dir.c_str());
      return kExitBadInput;
    }
    if (ShutdownRequested()) return abort_run("ingest");
    health::SetStage("spool");
    spooler->Finish();
    std::fprintf(stderr,
                 "spooled %zu events into %d shards (%zu dropped: users "
                 "outside the roster), %zu users\n",
                 spooler->events_spooled(), spooler->shards(),
                 spooler->events_dropped(), tables.users().size());
  } catch (const IngestError& e) {
    std::fprintf(stderr, "acobe-detect: malformed input: %s\n", e.what());
    return kExitBadInput;
  } catch (const std::runtime_error& e) {
    return spool_failure(e);
  }
  if (ShutdownRequested()) return abort_run("ingest");
  if (ingest_stats.rows_rejected > 0 || ingest_stats.rows_deduped > 0) {
    std::fprintf(stderr,
                 "ingest: %zu rows read, %zu rejected, %zu quarantined, "
                 "%zu duplicates dropped\n",
                 ingest_stats.rows_read, ingest_stats.rows_rejected,
                 ingest_stats.rows_quarantined, ingest_stats.rows_deduped);
  }

  // Day range from the data itself.
  if (!spooler->has_events()) {
    std::fprintf(stderr, "no events\n");
    return kExitBadInput;
  }
  const Date start = DateOf(spooler->ts_lo());
  const Date last = DateOf(spooler->ts_hi());
  const int days = static_cast<int>(DaysBetween(start, last)) + 1;
  if (days > kMaxDaySpan) {
    std::fprintf(stderr,
                 "acobe-detect: event timestamps span %d days (%s..%s); "
                 "refusing to allocate a cube that large\n",
                 days, start.ToString().c_str(), last.ToString().c_str());
    return kExitBadInput;
  }

  int train_end = 0, test_end = 0;
  try {
    train_end = static_cast<int>(
        DaysBetween(start, Date::FromString(train_end_text)));
    test_end =
        test_end_text.empty()
            ? days
            : static_cast<int>(
                  DaysBetween(start, Date::FromString(test_end_text))) + 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "acobe-detect: %s\n", e.what());
    Usage();
    return kExitUsage;
  }
  if (train_end <= 0 || train_end >= test_end) {
    std::fprintf(stderr,
                 "acobe-detect: bad train/test split (train-end must fall "
                 "after the first event and before test-end)\n");
    return kExitUsage;
  }

  DetectorSpec spec = AcobeSpec(omega, epochs, votes);
  spec.ensemble.threads = threads;  // deviation inherits via Detector::Run
  spec.ensemble.resume = resume;
  if (provenance) {
    spec.attribution.enabled = true;
    spec.attribution.top_users = top;
    spec.drift.enabled = true;
  }

  // Ledger groundwork: the answer key (provenance-only, skipped without
  // --explain-out/--ledger-out) and the dataset digest.
  std::map<std::string, std::pair<Date, Date>> truth;
  if (provenance) truth = LoadTruth(in_dir);
  const std::uint32_t dataset_digest = DigestDataset(file_digests);

  RunLedger ledger;
  if (!ledger_out.empty()) {
    LedgerEvent manifest =
        MakeManifestEvent("acobe-detect", DetectBuildInfo());
    manifest.Str("in", in_dir)
        .Int("dataset_digest", dataset_digest)
        .Str("start", start.ToString())
        .Str("train_end", start.AddDays(train_end).ToString())
        .Str("test_end", start.AddDays(test_end).ToString())
        .Int("omega", omega)
        .Int("epochs", epochs)
        .Int("votes", votes)
        .Int("threads", threads)
        .Int("seed", static_cast<std::int64_t>(spec.ensemble.seed))
        .Bool("resume", resume)
        .Bool("truth_present", !truth.empty());
    ledger.Append(manifest);
  }

  // A catalog-and-partition anchor for the emit stage: each shard's
  // extractors are freed as the loop goes, so the metadata lives here.
  const CertAcobeExtractor meta(start, 1);

  // --- compute (pass B) ----------------------------------------------------
  // Every shard's departments go to one DetectDepartments call: above
  // one thread they fan out over the pool while the next shard replays.
  // Replay thus runs inside the "detect" stage, which counts one unit
  // per trained aspect plus one for scoring, per department (ensemble
  // training and Detector::Run advance it).
  const std::uint64_t dept_units = meta.catalog().aspects().size() + 1;
  const int n_shards = spooler->shards();
  const DetectionDays window{.start = start, .days = days,
                             .train_end = train_end,
                             .score_begin = train_end, .score_end = test_end};
  std::vector<DetectionShard> detect_shards(n_shards);
  bool spool_failed = false;  // feeds run on this thread
  for (int s = 0; s < n_shards; ++s) {
    detect_shards[s].feed = [&, s](LogSink& sink) {
      telemetry::TraceSpan extract_span("detect.extract_features");
      try {
        spooler->Replay(s, sink);
      } catch (const std::runtime_error&) {
        spool_failed = true;
        throw;
      }
    };
  }
  for (std::size_t d = 0; d < departments.size(); ++d) {
    auto members = tables.UsersInDepartment(departments[d]);
    if (members.size() < kMinDepartmentUsers) continue;
    std::vector<DepartmentJob>& jobs = detect_shards[d % n_shards].jobs;
    jobs.push_back({departments[d], std::move(members), spec});
    if (!checkpoint_dir.empty()) {
      jobs.back().spec.ensemble.checkpoint_dir =
          checkpoint_dir + "/" + SanitizePathComponent(departments[d]);
    }
  }
  std::vector<const std::string*> job_names;  // (shard, job) order
  for (const DetectionShard& shard : detect_shards) {
    for (const DepartmentJob& job : shard.jobs) job_names.push_back(&job.name);
  }
  auto proceed = [&](std::size_t k) {
    if (ShutdownRequested()) return false;
    health::SetStageDetail(*job_names[k]);
    return true;
  };
  health::SetStage("detect", job_names.size() * dept_units);
  std::vector<DetectionOutput> outs;
  try {
    outs = DetectDepartments(detect_shards, window, threads, proceed);
  } catch (const CheckpointMismatch& e) {
    std::fprintf(stderr, "acobe-detect: corrupt artifact: %s\n", e.what());
    return kExitCorruptArtifact;
  } catch (const std::runtime_error& e) {
    if (!spool_failed) throw;
    return spool_failure(e);
  }
  std::vector<DeptResult> results;
  for (std::size_t k = 0; k < outs.size(); ++k) {
    for (const std::string& aspect : outs[k].degraded_aspects) {
      std::fprintf(stderr,
                   "acobe-detect: WARNING: %s: aspect '%s' diverged on "
                   "every attempt; ranking without it\n",
                   job_names[k]->c_str(), aspect.c_str());
    }
    results.push_back(DeptResult{*job_names[k], std::move(outs[k])});
  }
  // A shutdown request during detect aborts even when the departments
  // in flight were the last ones.
  if (outs.size() < job_names.size() || ShutdownRequested()) {
    return abort_run("detect");
  }
  spooler->Remove();
  // Shard order is not report order: restore the canonical LDAP
  // department order before emitting anything.
  std::map<std::string, std::size_t> order;
  for (std::size_t d = 0; d < departments.size(); ++d) {
    order[departments[d]] = d;
  }
  std::sort(results.begin(), results.end(),
            [&](const DeptResult& a, const DeptResult& b) {
              return order[a.name] < order[b.name];
            });
  ACOBE_GAUGE_SET("features.days", days);
  ACOBE_GAUGE_SET("features.features",
                  static_cast<int>(CertAcobeExtractor::kFeatureCount));
  ACOBE_GAUGE_SET("features.frames", meta.partition().frame_count());
  ACOBE_GAUGE_SET("features.aspects", meta.catalog().aspects().size());

  // --- emit ----------------------------------------------------------------
  health::SetStage("write");
  for (const DeptResult& result : results) {
    PrintDeptResult(result, tables, meta.catalog(), meta.partition(), start,
                    top);
    if (!ledger_out.empty()) {
      AppendDeptLedger(ledger, result, tables, top, truth);
    }
  }

  int exit_code = 0;
  if (!explain_out.empty()) {
    try {
      WriteFileAtomic(explain_out, [&](std::ostream& out) {
        WriteExplainJson(out, results, tables, meta.catalog(),
                         meta.partition(), start, in_dir, dataset_digest,
                         train_end, test_end, top);
      });
      std::fprintf(stderr, "wrote %s\n", explain_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "acobe-detect: cannot write %s: %s\n",
                   explain_out.c_str(), e.what());
      exit_code = kExitFailure;
    }
  }
  if (!ledger_out.empty()) {
    LedgerEvent done("run_complete");
    done.Int("departments", static_cast<std::int64_t>(results.size()))
        .Int("events", static_cast<std::int64_t>(ledger.event_count() + 1))
        .Int("peak_rss_bytes", static_cast<std::int64_t>(PeakRssBytes()))
        .Raw("stages", health::StageTimesJson());
    ledger.Append(done);
    if (!ledger.WriteFile(ledger_out)) {
      std::fprintf(stderr, "acobe-detect: cannot write %s\n",
                   ledger_out.c_str());
      exit_code = kExitFailure;
    } else {
      std::fprintf(stderr, "wrote %s\n", ledger_out.c_str());
    }
  }

  health::SetStage("done");
  health::StopHealth();  // final heartbeat carries the full span profile

  if (!telemetry::FlushTelemetry("acobe-detect", metrics_out, trace_out,
                                 std::cerr)) {
    exit_code = kExitFailure;
  }
  if (!prom_out.empty()) {
    if (telemetry::WriteMetricsPromFile(prom_out)) {
      std::fprintf(stderr, "wrote %s\n", prom_out.c_str());
    } else {
      std::fprintf(stderr, "acobe-detect: cannot write %s\n",
                   prom_out.c_str());
      exit_code = kExitFailure;
    }
  }
  return exit_code;
}
