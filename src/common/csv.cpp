#include "common/csv.h"

#include <ostream>

namespace acobe {

std::string CsvEscape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << CsvEscape(fields[i]);
  }
  out_ << '\n';
}

CsvRowStatus SplitCsvLineChecked(const std::string& line,
                                 std::vector<std::string>& fields) {
  fields.clear();
  // CRLF line ending: exactly one trailing '\r' is part of the line
  // terminator, not of the last field. Interior CRs are content (a
  // well-formed writer quotes them).
  std::size_t end = line.size();
  if (end > 0 && line[end - 1] == '\r') --end;

  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < end; ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < end && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return in_quotes ? CsvRowStatus::kUnterminatedQuote : CsvRowStatus::kOk;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  SplitCsvLineChecked(line, fields);
  return fields;
}

}  // namespace acobe
