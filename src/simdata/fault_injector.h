#pragma once

// Deterministic CSV fault injection for robustness testing. Given a
// rendered CSV text, corrupts a seeded pseudo-random subset of data
// rows with the failure modes real pipelines see: flipped bytes,
// rows cut short mid-field, duplicated rows, and files truncated
// mid-write.
//
// Two properties the tests lean on:
//  * Determinism — corruption depends only on (seed, key, text), so a
//    corrupted dataset is exactly reproducible across runs and thread
//    counts.
//  * No silent mutation — a byte-flipped row always gets at least one
//    non-digit byte inside its leading timestamp field and a truncated
//    row always loses at least one field separator, so every such row
//    fails strict parsing instead of being absorbed as subtly-wrong
//    data. Duplicated rows are exact adjacent copies, which permissive
//    ingestion drops via consecutive-duplicate suppression. Corruption
//    therefore perturbs ingestion counters, never the accepted dataset.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace acobe::sim {

struct FaultInjectorConfig {
  /// Per-row corruption probability for data rows (the header line is
  /// never touched).
  double rate = 0.01;
  std::uint64_t seed = 99;
  bool byte_flips = true;
  bool truncate_rows = true;
  bool duplicate_rows = true;
  /// Additionally chop the whole file partway through (a crashed
  /// writer). Applied at most once, after row-level faults.
  bool truncate_file = false;
  /// After emitting a flipped/truncated variant of a row, also deliver
  /// the original — an at-least-once shipper retrying a torn write.
  /// With this on, permissive ingestion recovers the clean event stream
  /// exactly (garble rejected, duplicates deduped), which is what lets
  /// the end-to-end test demand a bit-identical investigation list.
  /// Off (default), corruption is destructive: the row is lost.
  bool redeliver = false;
};

struct FaultReport {
  std::size_t rows_seen = 0;
  std::size_t rows_corrupted = 0;
  std::size_t bytes_flipped = 0;
  std::size_t rows_truncated = 0;
  std::size_t rows_duplicated = 0;
  bool file_truncated = false;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorConfig config) : config_(config) {}

  const FaultInjectorConfig& config() const { return config_; }

  /// Corrupts `csv` in place. `key` names the file (e.g. a hash of its
  /// basename) so each file in a dataset draws an independent fault
  /// stream from the same seed. The first line is the header; every
  /// later non-empty line goes through CorruptRow, numbered from 0.
  FaultReport Corrupt(std::string& csv, std::uint64_t key) const;

  /// Appends `row` (one data row, without its newline) to `out`, as the
  /// `row_index`-th data row of the file keyed `key`: corrupted when
  /// that row's fork of the (seed, key) stream draws a fault, so a
  /// writer can corrupt rows as it emits them and land the same bytes
  /// Corrupt() makes of the whole file. A garbled row is followed by
  /// the original under `redeliver`, and a duplicated row by its copy,
  /// each on a line of its own. truncate_file is Corrupt()'s alone.
  void CorruptRow(std::string_view row, std::uint64_t key,
                  std::size_t row_index, std::string& out,
                  FaultReport& report) const;

  /// Out-of-place convenience for tests.
  std::string Corrupted(std::string csv, std::uint64_t key) const {
    Corrupt(csv, key);
    return csv;
  }

 private:
  FaultInjectorConfig config_;
};

}  // namespace acobe::sim
