#pragma once

// The command-line runtime every acobe tool shares: strict value
// parsers, a flag table that owns --help, --version and every usage
// error, and the observability flags with their start/finish lifecycle.
//
// Exit codes (see common/faults.h):
//   2 (kExitUsage)           bad flags / missing arguments
//   3 (kExitBadInput)        unreadable or malformed input data
//   4 (kExitCorruptArtifact) a saved model/checkpoint failed validation
//   1 (kExitFailure)         any other runtime failure
//
// A usage error prints "<tool>: <reason>" and then the usage text on
// stderr, and exits kExitUsage. --help prints the usage on stdout and
// --version the build identity; both exit 0.

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/date.h"
#include "common/faults.h"
#include "common/health.h"
#include "common/shutdown.h"
#include "common/telemetry.h"
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

/// A malformed flag value. Parsers throw it instead of atoi's silent
/// garbage-to-0; Flags::Parse reports it as a usage error.
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

constexpr bool kRequired = true;

/// One tool's flag table. Each flag is declared once, with its
/// destination and its bounds or parser; Parse() then walks argv.
class Flags {
 public:
  /// `tool` prefixes every message; `usage` is the hand-written usage
  /// text; `build` is what --version prints.
  Flags(const char* tool, const char* usage, BuildInfo build = GetBuildInfo())
      : tool_(tool), usage_(usage), build_(std::move(build)) {}

  const char* tool() const { return tool_; }

  /// --NAME=VALUE handed to `parse`, which may throw FlagError or
  /// std::invalid_argument. A required flag must appear, non-empty.
  Flags& Value(const char* name, std::function<void(const char*)> parse,
               bool required = false) {
    flags_.push_back({name, true, required, false, std::move(parse)});
    return *this;
  }

  Flags& Str(const char* name, std::string* dst, bool required = false) {
    return Value(name, [dst](const char* v) { *dst = v; }, required);
  }

  template <typename T>
  Flags& Int(const char* name, T* dst, long long min,
             long long max = std::numeric_limits<int>::max()) {
    return Value(name, [name, dst, min, max](const char* v) {
      *dst = static_cast<T>(ParseInt(name, v, min, max));
    });
  }

  Flags& U64(const char* name, std::uint64_t* dst) {
    return Value(name,
                 [name, dst](const char* v) { *dst = ParseU64(name, v); });
  }

  Flags& Real(const char* name, double* dst, double min, double max) {
    return Value(name, [name, dst, min, max](const char* v) {
      *dst = ParseDouble(name, v, min, max);
    });
  }

  /// YYYY-MM-DD into a Date or a std::optional<Date>.
  template <typename D>
  Flags& Day(const char* name, D* dst, bool required = false) {
    return Value(name, [dst](const char* v) { *dst = Date::FromString(v); },
                 required);
  }

  /// --NAME without a value; sets *dst. A null `dst` accepts the flag
  /// and ignores it.
  Flags& Switch(const char* name, bool* dst) {
    flags_.push_back({name, false, false, false, [dst](const char*) {
                        if (dst) *dst = true;
                      }});
    return *this;
  }

  /// The one bare (non-dash) argument.
  Flags& Positional(std::string* dst) {
    positional_ = dst;
    return *this;
  }

  /// Walks argv; on --help, --version or any usage error it prints and
  /// exits. Flags apply in argv order.
  void Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help") {
        std::fputs(usage_, stdout);
        std::exit(0);
      }
      if (arg == "--version") {
        PrintVersionInfo(tool_, build_);
        std::exit(0);
      }
      const std::size_t eq = arg.find('=');
      const std::string_view name = arg.substr(0, eq);
      Flag* flag = nullptr;
      for (Flag& f : flags_) {
        if (name == f.name && f.takes_value == (eq != std::string_view::npos)) {
          flag = &f;
        }
      }
      if (flag == nullptr) {
        if (positional_ && positional_->empty() && !arg.starts_with('-')) {
          *positional_ = arg;
          continue;
        }
        UsageError("unknown argument '" + std::string(arg) + "'");
      }
      const char* value = flag->takes_value ? argv[i] + eq + 1 : "";
      if (flag->required && *value == '\0') {
        UsageError(flag->name + ": empty value");
      }
      flag->seen = true;
      try {
        flag->set(value);
      } catch (const FlagError& e) {
        UsageError(e.what());
      } catch (const std::invalid_argument& e) {
        UsageError(flag->name + ": " + e.what());
      }
    }
    for (const Flag& f : flags_) {
      if (f.required && !f.seen) UsageError(f.name + " is required");
    }
  }

  /// The one usage-error path: "<tool>: <reason>", usage, exit 2.
  [[noreturn]] void UsageError(const std::string& reason) const {
    std::fprintf(stderr, "%s: %s\n", tool_, reason.c_str());
    std::fputs(usage_, stderr);
    std::exit(kExitUsage);
  }

 private:
  struct Flag {
    std::string name;
    bool takes_value;
    bool required;
    bool seen;
    std::function<void(const char*)> set;
  };

  const char* tool_;
  const char* usage_;
  BuildInfo build_;
  std::vector<Flag> flags_;
  std::string* positional_ = nullptr;
};

/// The observability flags a tool offers, or-ed together.
enum ObservabilityFlags : unsigned {
  kMetricsOut = 1u << 0,  // --metrics-out=F
  kTraceOut = 1u << 1,    // --trace-out=F
  kHealthOut = 1u << 2,   // --health-out=F and --health-interval-ms=N
  kPromOut = 1u << 3,     // --prom-out=F
};

/// One run's observability plane: its flags, its start and its finish.
/// `flags` writes into this object, so it is neither copied nor moved.
class Observability {
 public:
  /// Registers the flags named in `which` on `flags`.
  Observability(Flags& flags, unsigned which) : tool_(flags.tool()) {
    if (which & kMetricsOut) flags.Str("--metrics-out", &metrics_out_);
    if (which & kTraceOut) flags.Str("--trace-out", &trace_out_);
    if (which & kHealthOut) {
      flags.Str("--health-out", &health_out_)
          .Int("--health-interval-ms", &health_interval_ms_, 10, 3600000);
    }
    if (which & kPromOut) flags.Str("--prom-out", &prom_out_);
  }
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  /// Signal handler, metrics on, tracing iff --trace-out, heartbeats
  /// iff --health-out. False when the heartbeat file cannot be opened.
  bool Start() const {
    InstallShutdownHandler();
    telemetry::EnableMetrics(true);
    telemetry::EnableTracing(!trace_out_.empty());
    if (health_out_.empty()) return true;
    health::HealthOptions opts;
    opts.path = health_out_;
    opts.interval_ms = health_interval_ms_;
    opts.tool = tool_;
    return health::StartHealth(opts);
  }

  /// Lands the final heartbeat, the stderr run report and the metrics,
  /// trace and Prometheus files. The heartbeat's stage follows from
  /// `exit_code`: 0 is "done", kExitAborted "aborted", anything else
  /// "failed". Returns `exit_code`, or kExitFailure in place of 0 when
  /// a file could not be written.
  int Finish(int exit_code) const {
    health::SetStage(exit_code == 0              ? "done"
                     : exit_code == kExitAborted ? "aborted"
                                                 : "failed");
    health::StopHealth();  // the final heartbeat carries the span profile
    bool ok = telemetry::FlushTelemetry(tool_, metrics_out_, trace_out_,
                                        std::cerr);
    if (!prom_out_.empty()) {
      if (telemetry::WriteMetricsPromFile(prom_out_)) {
        std::fprintf(stderr, "wrote %s\n", prom_out_.c_str());
      } else {
        std::fprintf(stderr, "%s: cannot write %s\n", tool_,
                     prom_out_.c_str());
        ok = false;
      }
    }
    return ok || exit_code != 0 ? exit_code : kExitFailure;
  }

 private:
  const char* tool_;
  std::string metrics_out_, trace_out_, health_out_, prom_out_;
  int health_interval_ms_ = 1000;
};

}  // namespace acobe::cli
