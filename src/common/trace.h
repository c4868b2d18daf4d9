#pragma once

// Scoped trace spans over the telemetry registry (common/telemetry.h).
//
// A TraceSpan measures the lifetime of a scope. On destruction it
//   - records the duration (milliseconds) into the histogram
//     "span.<name>" when metrics are enabled, and
//   - buffers one chrome://tracing complete event attributed to the
//     current thread when tracing is enabled (name "<name>" or
//     "<name>:<detail>").
// When both are disabled the constructor is a pair of relaxed loads and
// the destructor a branch.
//
// Active spans additionally maintain the health plane's per-thread span
// stack (common/health.h): Begin pushes the name (learning the parent
// span), End pops and records the (parent, name) edge into the span
// self-profile. The stack is what the crash flight recorder dumps, so a
// fatal signal shows each thread's position in the pipeline.
//
// `name` must be a string with static storage duration (the span keeps
// only the pointer). `detail` carries run-dependent context (an aspect
// name, a file stem) into the trace only — histogram names stay at
// bounded cardinality.

#include <cstdint>
#include <string>

#include "common/health.h"
#include "common/telemetry.h"

namespace acobe::telemetry {

class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : name_(name) { Begin(); }
  TraceSpan(const char* name, std::string detail)
      : name_(name), detail_(std::move(detail)) {
    Begin();
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Begin() {
    active_ = MetricsEnabled() || TracingEnabled();
    if (active_) {
      parent_ = health::SpanStackPush(name_);
      start_ns_ = NowNs();
    }
  }
  void End();

  const char* name_;
  std::string detail_;
  const char* parent_ = nullptr;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace acobe::telemetry

// Statement macro: ACOBE_SPAN("ensemble.train"); measures to the end of
// the enclosing scope. ACOBE_SPAN2 adds a dynamic detail string (trace
// event name only).
#define ACOBE_SPAN_CONCAT2(a, b) a##b
#define ACOBE_SPAN_CONCAT(a, b) ACOBE_SPAN_CONCAT2(a, b)
#define ACOBE_SPAN(name)                                    \
  acobe::telemetry::TraceSpan ACOBE_SPAN_CONCAT(            \
      acobe_tm_span_, __LINE__)(name)
#define ACOBE_SPAN2(name, detail)                           \
  acobe::telemetry::TraceSpan ACOBE_SPAN_CONCAT(            \
      acobe_tm_span_, __LINE__)(name, detail)
