#pragma once

// The resident service's durability plane.
//
// acobe-serve emits two append-only output streams (alerts.jsonl and
// ledger.jsonl) and keeps one CRC'd journal recording how much of them
// is committed, which batches were consumed, and the serialized
// per-department MonitorState. The commit protocol per cycle:
//
//   1. compute the cycle's emissions in memory,
//   2. append them to the output streams, flush + fsync,
//   3. SaveJournal() — atomically (WriteFileAtomic) replace the
//      journal with the new cycle count, batch list, output byte
//      offsets and monitor blobs.
//
// A crash between 2 and 3 leaves appended-but-unjournaled bytes; on
// restart the outputs are truncated back to the journaled offsets and
// the cycle re-runs, producing the identical bytes (detection is
// deterministic). A crash during 3 leaves the previous journal intact
// (the write is atomic). Either way the concatenated output streams
// are byte-identical to an uninterrupted run — the property the
// service-soak harness enforces with ≥10 seeded kill points.
//
// The journal is one "ACJL" record (common/record.h), the frame every
// model artifact and monitor snapshot uses too; each monitor blob inside
// it is itself an "ACMS" record.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace acobe {

/// Unusable journal / output-stream state: any journal decode failure
/// (bad magic, CRC mismatch, malformed field, undecodable monitor blob)
/// or outputs shorter than the journal claims durable.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

struct BatchRecord {
  std::string name;          // batch directory name under the watch dir
  std::uint32_t digest = 0;  // CRC-32 over its CSV bytes (fixed order)
  std::int64_t day_lo = 0;   // event-day range, absolute day numbers
  std::int64_t day_hi = -1;  // day_hi < day_lo: batch carried no events
};

struct ShardRecord {
  bool quarantined = false;
  std::uint32_t failures = 0;  // cycle failures absorbed so far
};

struct JournalState {
  /// CRC of the config knobs that shape detection output; a restart
  /// with a different fingerprint is refused (it could not resume
  /// bit-identically).
  std::uint64_t config_fingerprint = 0;
  std::uint64_t cycle = 0;          // committed cycles
  std::uint64_t alerts_bytes = 0;   // durable prefix of alerts.jsonl
  std::uint64_t alerts_count = 0;   // alert lines in that prefix
  std::uint64_t ledger_bytes = 0;   // durable prefix of ledger.jsonl
  std::int64_t last_scored_day = -1;  // absolute day number, -1 none
  std::vector<BatchRecord> batches;   // consumed, in consumption order
  std::vector<ShardRecord> shards;
  /// department name -> serialized MonitorState (core/monitor.h).
  std::vector<std::pair<std::string, std::string>> monitors;
};

/// Atomically replaces the journal at `path`.
void SaveJournal(const std::string& path, const JournalState& state);

/// Loads the journal; nullopt when the file does not exist (fresh
/// start), JournalError when it exists but is unreadable or corrupt.
std::optional<JournalState> LoadJournal(const std::string& path);

/// One append-only output stream with explicit durability points.
/// Opening truncates the file to `committed_bytes` — the journaled
/// durable prefix — removing any torn tail from a crash mid-append.
/// Throws JournalError if the file is shorter than the journal claims.
class AppendLog {
 public:
  AppendLog(const std::string& path, std::uint64_t committed_bytes);
  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Appends `line` plus a newline (buffered in the kernel, not yet
  /// durable — call Sync() at the commit point).
  void Append(const std::string& line);

  /// fsync; throws std::runtime_error when the stream cannot be made
  /// durable.
  void Sync();

  /// Bytes written so far (== the offset to journal after Sync()).
  std::uint64_t bytes() const { return bytes_; }

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t bytes_ = 0;
};

}  // namespace acobe
