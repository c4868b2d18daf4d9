#pragma once

// Minimal CSV reading/writing used for log round-trips and bench output.
// The writer quotes fields containing commas, quotes or newlines. The
// reader splits one physical line at a time (the CERT log layout is one
// record per line; logs/log_io.cpp cuts files into lines), handles CRLF
// endings, and reports structural damage (an unterminated quote)
// instead of guessing, so ingestion policies can decide.

#include <iosfwd>
#include <string>
#include <vector>

namespace acobe {

/// Writes rows to an output stream, quoting when needed.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void WriteRow(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
};

/// Structural verdict for one line.
enum class CsvRowStatus {
  kOk,
  kUnterminatedQuote,  // quote still open at end of line (truncated row)
};

/// Splits a single CSV line into fields, reporting structural damage.
/// A single trailing '\r' (CRLF ending) is ignored; other carriage
/// returns are field content. `fields` is always populated best-effort
/// even on a non-kOk status.
CsvRowStatus SplitCsvLineChecked(const std::string& line,
                                 std::vector<std::string>& fields);

/// Splits a single CSV line (no embedded newlines) into fields,
/// ignoring structural damage (legacy convenience wrapper).
std::vector<std::string> SplitCsvLine(const std::string& line);

/// Escapes a single field for CSV output.
std::string CsvEscape(const std::string& field);

}  // namespace acobe
