#pragma once

// Pipeline-wide fault-tolerance primitives.
//
// Real multi-source log feeds (the paper's 7-month ELK-collected
// enterprise dataset) routinely contain truncated lines, bad
// timestamps and duplicated deliveries, and long detection runs can be
// interrupted at any point. This header defines the shared vocabulary
// for surviving both:
//   - IngestPolicy/IngestOptions/IngestStats drive per-row error
//     recovery in the CSV readers (src/logs/log_io.h),
//   - IngestError carries file:line context for the offending row,
//   - Crc32 / WriteFileAtomic make artifact writes crash-safe and
//     corruption detectable; every binary artifact is framed by the
//     record codec in src/common/record.h,
//   - the kExit* codes standardize tool failure paths.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <stdexcept>
#include <string>

namespace acobe {

// Standard tool exit codes (acobe-detect / acobe-gen / acobe-serve).
constexpr int kExitFailure = 1;          // misc runtime failure
constexpr int kExitUsage = 2;            // bad flags / usage error
constexpr int kExitBadInput = 3;         // malformed input data
constexpr int kExitCorruptArtifact = 4;  // unusable model/checkpoint artifact
constexpr int kExitAborted = 5;          // SIGINT/SIGTERM before completion

/// How the CSV readers react to a malformed row.
enum class IngestPolicy {
  kStrict,      // throw IngestError on the first bad row (legacy behavior)
  kPermissive,  // skip bad rows, keep counts, abort only past the budget
  kQuarantine,  // permissive + copy every rejected raw row to a sink
};

const char* ToString(IngestPolicy policy);
/// Parses "strict" / "permissive" / "quarantine"; throws
/// std::invalid_argument otherwise.
IngestPolicy IngestPolicyFromString(const std::string& s);

/// The tools' event-timestamp plausibility window: 1980-01-01 ..
/// 2100-01-01. One corrupted-but-numeric timestamp outside it would
/// otherwise stretch the detected day span (and the measurement-cube
/// allocation) by decades.
constexpr std::int64_t kPlausibleTsMin = 315532800;
constexpr std::int64_t kPlausibleTsMax = 4102444800;

struct IngestOptions {
  IngestPolicy policy = IngestPolicy::kStrict;
  /// Bounded error budget: even in permissive/quarantine mode the read
  /// aborts (IngestError) once more than `error_budget` of the data
  /// rows seen so far were rejected. Only enforced after
  /// `budget_min_rows` rows so a handful of bad rows in a tiny file
  /// does not trip it.
  double error_budget = 0.05;
  std::size_t budget_min_rows = 100;
  /// Rejected raw rows are copied here verbatim under kQuarantine
  /// (one line per logical row; embedded newlines are escaped by the
  /// CSV quoting they arrived with). May be null.
  std::ostream* quarantine = nullptr;
  /// Drop a data row identical (byte-for-byte) to its predecessor.
  /// At-least-once log shippers duplicate on redelivery, and the
  /// FaultInjector's duplicate fault models exactly that. Off by
  /// default: legitimate streams may contain identical adjacent events.
  bool drop_consecutive_duplicates = false;
  /// Plausibility window for event timestamps (seconds since epoch);
  /// rows outside are rejected as "bad timestamp". Unrestricted by
  /// default (unit tests use synthetic epochs); the tools narrow it to
  /// kPlausibleTsMin..kPlausibleTsMax.
  std::int64_t ts_min = std::numeric_limits<std::int64_t>::min();
  std::int64_t ts_max = std::numeric_limits<std::int64_t>::max();
  /// Workers that parse one file's newline-aligned chunks (resolved via
  /// ResolveThreadCount: 0 = ACOBE_THREADS, else hardware concurrency).
  /// Stats, diagnostics, ids and event order are identical at any count.
  int threads = 0;
};

struct IngestStats {
  std::size_t rows_read = 0;         // data rows seen (header excluded)
  std::size_t rows_rejected = 0;     // malformed rows skipped or fatal
  std::size_t rows_quarantined = 0;  // rejected rows copied to the sink
  std::size_t rows_deduped = 0;      // consecutive duplicates dropped
  /// First rejection, as "file:line: reason" (empty when clean).
  std::string first_error;
  /// Every byte the reader consumed, header line included, and their
  /// CRC-32: a digest of the input without a second read. Merge() leaves
  /// both alone, since combining CRCs (Crc32Combine) depends on order.
  std::uint64_t bytes_read = 0;
  std::uint32_t bytes_crc = 0;

  void Merge(const IngestStats& other);
};

/// Malformed-input error carrying file:line context of the offending
/// row. Derives from std::invalid_argument so legacy strict-mode
/// callers (and tests) that expect std::invalid_argument keep working.
class IngestError : public std::invalid_argument {
 public:
  IngestError(const std::string& file, std::size_t line,
              const std::string& reason)
      : std::invalid_argument(file + ":" + std::to_string(line) + ": " +
                              reason),
        file_(file),
        line_(line) {}

  const std::string& file() const { return file_; }
  std::size_t line() const { return line_; }

 private:
  std::string file_;
  std::size_t line_;
};

/// CRC-32 (IEEE 802.3, reflected, init/final-xor 0xFFFFFFFF — the
/// zlib/PNG polynomial). `seed` is the running value for incremental
/// use: Crc32(b, nb, Crc32(a, na)) == Crc32(concat(a,b)).
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);
std::uint32_t Crc32(const std::string& data, std::uint32_t seed = 0);

/// The CRC-32 of concat(a, b) from Crc32(a), Crc32(b) and b's length,
/// in O(log len_b): lets pieces of one stream be checksummed apart.
std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b);

/// Crash-safe file replacement: `writer` streams the payload into a
/// temporary file next to `path`, which is flushed, fsync'd and
/// atomically renamed over `path`. A crash at any point leaves either
/// the old file or the new file, never a torn mix; the temporary is
/// unlinked on failure. Throws std::runtime_error when the payload
/// cannot be written durably.
void WriteFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& writer);

/// Process-wide count of successful parent-directory fsyncs performed
/// by WriteFileAtomic after its rename. The directory sync is what
/// makes the *rename* durable across power loss (the file fsync alone
/// only makes the payload durable); this counter exists so tests can
/// assert the path is actually exercised rather than silently skipped.
std::uint64_t DirFsyncCount();

}  // namespace acobe
