#include "common/ledger.h"

#include <ostream>
#include <sstream>

#include "common/faults.h"
#include "common/telemetry.h"

namespace acobe {
namespace {

void AppendEscaped(std::string& buf, std::string_view s) {
  std::ostringstream os;
  telemetry::JsonEscape(os, s);
  buf += os.str();
}

void AppendNumber(std::string& buf, double v) {
  std::ostringstream os;
  telemetry::JsonNumber(os, v);
  buf += os.str();
}

}  // namespace

LedgerEvent::LedgerEvent(std::string_view type) {
  buf_ = "{\"event\": \"";
  AppendEscaped(buf_, type);
  buf_ += '"';
}

LedgerEvent& LedgerEvent::Key(std::string_view key) {
  buf_ += ", \"";
  AppendEscaped(buf_, key);
  buf_ += "\": ";
  return *this;
}

LedgerEvent& LedgerEvent::Str(std::string_view key, std::string_view value) {
  Key(key);
  buf_ += '"';
  AppendEscaped(buf_, value);
  buf_ += '"';
  return *this;
}

LedgerEvent& LedgerEvent::Num(std::string_view key, double value) {
  Key(key);
  AppendNumber(buf_, value);
  return *this;
}

LedgerEvent& LedgerEvent::Int(std::string_view key, std::int64_t value) {
  Key(key);
  buf_ += std::to_string(value);
  return *this;
}

LedgerEvent& LedgerEvent::Bool(std::string_view key, bool value) {
  Key(key);
  buf_ += value ? "true" : "false";
  return *this;
}

LedgerEvent& LedgerEvent::StrList(std::string_view key,
                                  std::span<const std::string> v) {
  Key(key);
  buf_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) buf_ += ", ";
    buf_ += '"';
    AppendEscaped(buf_, v[i]);
    buf_ += '"';
  }
  buf_ += ']';
  return *this;
}

LedgerEvent& LedgerEvent::NumList(std::string_view key,
                                  std::span<const float> v) {
  Key(key);
  buf_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) buf_ += ", ";
    AppendNumber(buf_, v[i]);
  }
  buf_ += ']';
  return *this;
}

LedgerEvent& LedgerEvent::NumList(std::string_view key,
                                  std::span<const double> v) {
  Key(key);
  buf_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) buf_ += ", ";
    AppendNumber(buf_, v[i]);
  }
  buf_ += ']';
  return *this;
}

LedgerEvent& LedgerEvent::Raw(std::string_view key, std::string_view json) {
  Key(key);
  buf_ += json;
  return *this;
}

std::string LedgerEvent::Finish() const { return buf_ + "}"; }

void RunLedger::Append(const LedgerEvent& event) {
  std::string line = event.Finish();
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back(std::move(line));
}

std::size_t RunLedger::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

void RunLedger::WriteTo(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& line : lines_) out << line << '\n';
}

bool RunLedger::WriteFile(const std::string& path) const {
  try {
    WriteFileAtomic(path, [this](std::ostream& out) { WriteTo(out); });
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

LedgerEvent MakeManifestEvent(std::string_view tool, const BuildInfo& build) {
  std::string build_json = "{\"version\": \"";
  AppendEscaped(build_json, build.version);
  build_json += "\", \"build_type\": \"";
  AppendEscaped(build_json, build.build_type);
  build_json += "\", \"simd\": \"";
  AppendEscaped(build_json, build.simd);
  build_json += "\", \"telemetry\": ";
  build_json += build.telemetry ? "true" : "false";
  // NN kernel family (nn::kKernelFamily): attributes every score in the
  // run to the kernels that produced it. Absent when the tool leaves
  // BuildInfo::nn_backend empty.
  if (!build.nn_backend.empty()) {
    build_json += ", \"nn_backend\": \"";
    AppendEscaped(build_json, build.nn_backend);
    build_json += '"';
  }
  build_json += '}';

  LedgerEvent event("manifest");
  event.Str("schema", "acobe.ledger.v1").Str("tool", tool);
  event.Raw("build", build_json);
  return event;
}

}  // namespace acobe
