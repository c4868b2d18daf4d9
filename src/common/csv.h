#pragma once

// Minimal CSV reading/writing for the CERT log layout (logs/log_io.h).
// The writer quotes fields containing commas, quotes or newlines. The
// reader splits one physical line at a time (the CERT log layout is one
// record per line; logs/log_io.cpp cuts files into lines), handles CRLF
// endings, and reports structural damage (an unterminated quote)
// instead of guessing, so ingestion policies can decide.

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace acobe {

/// Writes rows to an output stream, quoting when needed.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void WriteRow(std::initializer_list<std::string_view> fields);

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

/// Escapes a single field for CSV output.
std::string CsvEscape(std::string_view field);

}  // namespace acobe
