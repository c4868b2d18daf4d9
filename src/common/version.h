#pragma once

// Build identity, reported the same way everywhere it matters: the
// tools' --version output, the run-ledger manifest (common/ledger.h),
// and the explain report header. Keeping one definition guarantees an
// analyst can line up a saved ledger with the binary that wrote it.

#include <string>

namespace acobe {

/// Repository version; bump on externally visible format changes
/// (ledger/explain schemas carry their own version strings on top).
inline constexpr const char kAcobeVersion[] = "0.8.0";

struct BuildInfo {
  std::string version;     // kAcobeVersion
  std::string build_type;  // CMAKE_BUILD_TYPE baked in at compile time
  std::string simd;        // "avx2" or "scalar" (runtime dispatch)
  bool telemetry = true;   // instrumentation compiled in (always)
  // NN kernel family (nn::kKernelFamily), stamped by acobe_detect. Left
  // empty by tools that do not report it, whose manifests omit the
  // field.
  std::string nn_backend;
};

/// The active GEMM dispatch decision. Mirrors the runtime check in
/// nn/gemm.cpp (__builtin_cpu_supports) without linking acobe_nn, so
/// acobe_gen — which has no neural-net dependency — reports it too.
inline const char* ActiveSimdName() {
  return __builtin_cpu_supports("avx2") ? "avx2" : "scalar";
}

inline BuildInfo GetBuildInfo() {
  BuildInfo info;
  info.version = kAcobeVersion;
#ifdef ACOBE_BUILD_TYPE
  info.build_type = ACOBE_BUILD_TYPE;
#else
  info.build_type = "unknown";
#endif
  info.simd = ActiveSimdName();
  return info;
}

}  // namespace acobe
