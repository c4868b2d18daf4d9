#include "common/csv.h"

#include <ostream>

namespace acobe {

namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

}  // namespace

std::string CsvEscape(std::string_view field) {
  if (!NeedsQuoting(field)) return std::string(field);
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

void CsvWriter::WriteRow(std::initializer_list<std::string_view> fields) {
  for (const std::string_view& field : fields) {
    if (&field != fields.begin()) out_ << ',';
    // Most fields need no quoting: write them without a copy.
    if (NeedsQuoting(field)) {
      out_ << CsvEscape(field);
    } else {
      out_ << field;
    }
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

}  // namespace acobe
