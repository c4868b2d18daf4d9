#pragma once

// Shared strict flag parsing for the acobe command-line tools, plus the
// tools' common exit-code taxonomy (see common/faults.h):
//   2 (kExitUsage)           bad flags / missing arguments
//   3 (kExitBadInput)        unreadable or malformed input data
//   4 (kExitCorruptArtifact) a saved model/checkpoint failed validation
//   1 (kExitFailure)         any other runtime failure
//
// Parsers throw FlagError instead of atoi's silent garbage-to-0; the
// tools catch it at the flag loop, print the message + usage to stderr,
// and exit kExitUsage.

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/faults.h"
#include "common/version.h"

namespace acobe::cli {

/// `--version` output, identical across tools and identical in content
/// to the build block in every run-ledger manifest: repo version, build
/// type, active SIMD dispatch, telemetry compile state, and — for tools
/// that stamp it into their BuildInfo — the NN kernel family.
inline void PrintVersionInfo(const char* tool, const BuildInfo& info) {
  std::printf("%s %s (build: %s, simd: %s, telemetry: %s", tool,
              info.version.c_str(), info.build_type.c_str(), info.simd.c_str(),
              info.telemetry ? "on" : "off");
  if (!info.nn_backend.empty()) {
    std::printf(", nn-backend: %s", info.nn_backend.c_str());
  }
  std::printf(")\n");
}

inline void PrintVersion(const char* tool) {
  PrintVersionInfo(tool, GetBuildInfo());
}

struct FlagError : std::runtime_error {
  explicit FlagError(const std::string& what) : std::runtime_error(what) {}
};

/// Whole-value strict integer in [min, max].
inline long long ParseInt(const char* arg, const char* value, long long min,
                          long long max) {
  const std::string text(value);
  if (text.empty()) throw FlagError(std::string(arg) + ": empty value");
  long long parsed = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec == std::errc::result_out_of_range) {
    throw FlagError(std::string(arg) + ": out of range");
  }
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw FlagError(std::string(arg) + ": not an integer");
  }
  if (parsed < min || parsed > max) {
    throw FlagError(std::string(arg) + ": must be in [" + std::to_string(min) +
                    ", " + std::to_string(max) + "]");
  }
  return parsed;
}

inline std::uint64_t ParseU64(const char* arg, const char* value) {
  const std::string text(value);
  if (text.empty()) throw FlagError(std::string(arg) + ": empty value");
  std::uint64_t parsed = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw FlagError(std::string(arg) + ": not an unsigned integer");
  }
  return parsed;
}

/// Whole-value strict double in [min, max]. strtod (not from_chars) for
/// libstdc++ versions without the FP overload, with manual whole-value
/// and range policing.
inline double ParseDouble(const char* arg, const char* value, double min,
                          double max) {
  if (*value == '\0') throw FlagError(std::string(arg) + ": empty value");
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (*end != '\0' || end == value) {
    throw FlagError(std::string(arg) + ": not a number");
  }
  if (errno == ERANGE || parsed < min || parsed > max) {
    throw FlagError(std::string(arg) + ": must be in [" + std::to_string(min) +
                    ", " + std::to_string(max) + "]");
  }
  return parsed;
}

}  // namespace acobe::cli
