#pragma once

// The CPU's vector ISA, resolved once per process. The NN kernels that
// have vector forms (the GEMM full tile, the Adam step and the ReLU
// backward, src/nn) dispatch on CpuSimd(), and the build identity
// (common/version.h: --version, ledger manifests, explain reports)
// names it, so the stamped ISA is always the one that ran. Every level
// computes bit-identical results; the level only decides speed.

#if defined(__x86_64__) && defined(__GNUC__)
#define ACOBE_SIMD_X86 1
#endif

namespace acobe {

/// Ordered: a level implies the ones below it.
enum class Simd { kScalar = 0, kAvx2 = 1 };

/// The widest level this CPU (and its OS) supports.
inline Simd CpuSimd() {
#ifdef ACOBE_SIMD_X86
  static const Simd level =
      __builtin_cpu_supports("avx2") ? Simd::kAvx2 : Simd::kScalar;
  return level;
#else
  return Simd::kScalar;
#endif
}

/// "avx2" or "scalar".
inline const char* SimdName(Simd level) {
  return level == Simd::kAvx2 ? "avx2" : "scalar";
}

}  // namespace acobe
