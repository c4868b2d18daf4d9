#include "simdata/fault_injector.h"

#include <algorithm>
#include <string_view>

#include "common/rng.h"

namespace acobe::sim {
namespace {

enum class FaultKind { kByteFlip, kTruncateRow, kDuplicateRow };

// Replacement bytes for flips. Deliberately free of digits: the
// guaranteed flip lands in the timestamp field, and a digit-to-digit
// flip would yield a different but *valid* timestamp — silently moving
// an event in time (and potentially exploding the dataset's day span)
// instead of rejecting the row.
constexpr std::string_view kNastyBytes = "!?~|;#@$%^&*<>\"'\\ \x01\x7f";

void FlipBytes(std::string& row, Rng& rng, FaultReport& report) {
  // One guaranteed flip inside the leading (timestamp) field...
  const std::size_t first_comma = std::min(row.find(','), row.size());
  const std::size_t ts_len = std::max<std::size_t>(first_comma, 1);
  row[rng.NextBounded(ts_len)] =
      kNastyBytes[rng.NextBounded(kNastyBytes.size())];
  ++report.bytes_flipped;
  // ...plus up to two more anywhere in the row.
  const int extra = rng.NextInt(0, 2);
  for (int i = 0; i < extra; ++i) {
    row[rng.NextBounded(row.size())] =
        kNastyBytes[rng.NextBounded(kNastyBytes.size())];
    ++report.bytes_flipped;
  }
}

void TruncateRow(std::string& row, Rng& rng, FaultReport& report) {
  // Cut at or before the last separator so the row always loses at
  // least one field (a cut inside the final field could still parse).
  const std::size_t last_comma = row.rfind(',');
  const std::size_t limit = last_comma == std::string::npos ? 0 : last_comma;
  row.resize(rng.NextBounded(limit + 1));
  ++report.rows_truncated;
}

}  // namespace

FaultReport FaultInjector::Corrupt(std::string& csv, std::uint64_t key) const {
  FaultReport report;
  std::string out;
  out.reserve(csv.size() + csv.size() / 16);

  std::size_t pos = 0;
  std::size_t row_index = 0;
  bool header = true;
  while (pos < csv.size()) {
    std::size_t eol = csv.find('\n', pos);
    const bool had_newline = eol != std::string::npos;
    if (!had_newline) eol = csv.size();
    const std::string_view row(csv.data() + pos, eol - pos);
    pos = had_newline ? eol + 1 : csv.size();

    if (header || row.empty()) {
      header = false;
      out += row;
    } else {
      CorruptRow(row, key, row_index++, out, report);
    }
    if (had_newline) out += '\n';
  }

  if (config_.truncate_file && out.size() > 1) {
    // A crashed writer: keep at least half, cut somewhere in the rest.
    // 0xF11E is distinct from any row stream key.
    Rng rng = Rng(config_.seed).Fork(key).Fork(0xF11E);
    const std::size_t keep =
        out.size() / 2 + rng.NextBounded(out.size() - out.size() / 2);
    out.resize(std::max<std::size_t>(keep, 1));
    report.file_truncated = true;
  }

  csv = std::move(out);
  return report;
}

void FaultInjector::CorruptRow(std::string_view row, std::uint64_t key,
                               std::size_t row_index, std::string& out,
                               FaultReport& report) const {
  FaultKind kinds[3];
  std::size_t n_kinds = 0;
  if (config_.byte_flips) kinds[n_kinds++] = FaultKind::kByteFlip;
  if (config_.truncate_rows) kinds[n_kinds++] = FaultKind::kTruncateRow;
  if (config_.duplicate_rows) kinds[n_kinds++] = FaultKind::kDuplicateRow;
  if (n_kinds == 0) {
    out += row;
    return;
  }

  ++report.rows_seen;
  // Every row gets its own forked stream, so whether row k is
  // corrupted is independent of the faults drawn for rows < k.
  Rng rng = Rng(config_.seed).Fork(key).Fork(row_index);
  if (!rng.NextBernoulli(config_.rate)) {
    out += row;
    return;
  }

  ++report.rows_corrupted;
  const FaultKind kind = kinds[rng.NextBounded(n_kinds)];
  if (kind == FaultKind::kDuplicateRow) {
    ++report.rows_duplicated;
    out += row;
    out += '\n';
    out += row;
    return;
  }
  std::string garbled(row);
  if (kind == FaultKind::kByteFlip) {
    FlipBytes(garbled, rng, report);
  } else {
    TruncateRow(garbled, rng, report);
  }
  out += garbled;
  if (config_.redeliver) {
    out += '\n';
    out += row;
  }
}

}  // namespace acobe::sim
