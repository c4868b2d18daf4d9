#include "nn/gemm.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>
#include <stdexcept>

#include "common/simd.h"
#include "common/telemetry.h"

#ifdef ACOBE_SIMD_X86
#include <immintrin.h>
#endif

namespace acobe::nn {

namespace {

// Full-tile micro-kernel: a kMR x kNR tile of C with per-element
// accumulator chains in ascending-k order. `ars`/`als` are A's row/term
// strides, so one kernel serves both the plain and the A-transposed
// layouts.
using MicroKernelFn = void (*)(std::size_t k, const float* a,
                               std::size_t ars, std::size_t als,
                               const float* b, std::size_t ldb, float* c,
                               std::size_t ldc, const float* bias);

// Micro-tile geometry shared by every kernel: kMR C-rows by kNR
// C-columns per full tile (one j-panel is kNR wide).
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 16;

// ---------------------------------------------------------------------------
// Telemetry: per-call flop accounting plus an achieved-GFLOP/s histogram
// bucketed by shape class (total flops), so the end-of-run report shows
// math-core throughput next to the span timings. Costs two clock reads
// per GEMM when metrics are enabled, nothing when disabled.
// ---------------------------------------------------------------------------
class GemmTimer {
 public:
  GemmTimer() : enabled_(telemetry::MetricsEnabled()), start_ns_(0) {
    if (!enabled_) return;
    // Clock reads cost ~20-30 ns, comparable to a small layer's whole
    // GEMM; sample 1 call in 8 (per thread) so per-call overhead stays
    // negligible while the GFLOP/s histograms still fill up. The
    // calls/flops counters below are exact — only timing is sampled.
    thread_local std::uint32_t tick = 0;
    sampled_ = (tick++ % 8) == 0;
    if (sampled_) start_ns_ = telemetry::NowNs();
  }

  void Finish(std::size_t m, std::size_t k, std::size_t n) const {
    if (!enabled_) return;
    const std::uint64_t flops = 2ull * m * k * n;
    ACOBE_COUNT("nn.gemm.calls", 1);
    ACOBE_COUNT("nn.gemm.flops", flops);
    if (!sampled_) return;
    const std::uint64_t dur_ns = telemetry::NowNs() - start_ns_;
    if (dur_ns == 0) return;
    // flops per nanosecond == GFLOP/s.
    const double gflops =
        static_cast<double>(flops) / static_cast<double>(dur_ns);
    static telemetry::Histogram& lt1m =
        telemetry::GetHistogram("nn.gemm.gflops.lt1M");
    static telemetry::Histogram& lt8m =
        telemetry::GetHistogram("nn.gemm.gflops.1M-8M");
    static telemetry::Histogram& lt64m =
        telemetry::GetHistogram("nn.gemm.gflops.8M-64M");
    static telemetry::Histogram& ge64m =
        telemetry::GetHistogram("nn.gemm.gflops.ge64M");
    (flops < 1000000       ? lt1m
     : flops < 8000000     ? lt8m
     : flops < 64000000    ? lt64m
                           : ge64m)
        .Record(gflops);
  }

 private:
  bool enabled_;
  bool sampled_ = false;
  std::uint64_t start_ns_;
};

// ---------------------------------------------------------------------------
// Blocked kernels.
//
// One tile driver: C is walked in kMR x kNR tiles; for each tile a
// micro-kernel runs the full k loop with the tile's accumulators live in
// registers, then writes C once (plus the optional fused bias).
// A[row r of the tile, term l] is addressed as a[r * ars + l * als],
// which expresses both the plain (ars = lda, als = 1) and the
// A-transposed (ars = 1, als = lda) layouts without separate kernels.
//
// Accumulation-order invariant (Edge, Full, Avx2; see gemm.h): each C
// element owns one accumulator chain, added to in ascending-l order,
// multiply and add as separate roundings. Vectorization is across j
// (independent elements), never across k, so the blocked results are
// bit-identical to the scalar reference kernels.
// ---------------------------------------------------------------------------

// Portable micro-kernel, runtime tile bounds (mr <= kMR, nr <= kNR):
// handles every edge tile. MicroKernelFull below is the same code with
// fixed bounds, the full-tile kernel on CPUs without AVX2.
void MicroKernelEdge(std::size_t mr, std::size_t nr, std::size_t k,
                     const float* __restrict a, std::size_t ars,
                     std::size_t als, const float* __restrict b,
                     std::size_t ldb, float* __restrict c, std::size_t ldc,
                     const float* __restrict bias) {
  float acc[kMR][kNR];
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t j = 0; j < nr; ++j) acc[r][j] = 0.0f;
  }
  for (std::size_t l = 0; l < k; ++l) {
    const float* __restrict brow = b + l * ldb;
    for (std::size_t r = 0; r < mr; ++r) {
      const float av = a[r * ars + l * als];
      for (std::size_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    float* __restrict crow = c + r * ldc;
    if (bias != nullptr) {
      for (std::size_t j = 0; j < nr; ++j) crow[j] = acc[r][j] + bias[j];
    } else {
      for (std::size_t j = 0; j < nr; ++j) crow[j] = acc[r][j];
    }
  }
}

// Full-tile portable micro-kernel: compile-time bounds let the j loops
// auto-vectorize under the baseline build flags.
void MicroKernelFull(std::size_t k, const float* __restrict a,
                     std::size_t ars, std::size_t als,
                     const float* __restrict b, std::size_t ldb,
                     float* __restrict c, std::size_t ldc,
                     const float* __restrict bias) {
  float acc[kMR][kNR] = {};
  for (std::size_t l = 0; l < k; ++l) {
    const float* __restrict brow = b + l * ldb;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = a[r * ars + l * als];
      for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < kMR; ++r) {
    float* __restrict crow = c + r * ldc;
    if (bias != nullptr) {
      for (std::size_t j = 0; j < kNR; ++j) crow[j] = acc[r][j] + bias[j];
    } else {
      for (std::size_t j = 0; j < kNR; ++j) crow[j] = acc[r][j];
    }
  }
}

#ifdef ACOBE_SIMD_X86
// AVX2 full-tile micro-kernel: 8 ymm accumulators (4 rows x 2 vectors),
// one broadcast per A term. Deliberately multiply-then-add -- the
// "avx2" target (without "fma") cannot even emit fused multiply-add --
// so every term is rounded exactly like the scalar kernels.
__attribute__((target("avx2"))) void MicroKernelAvx2(
    std::size_t k, const float* __restrict a, std::size_t ars,
    std::size_t als, const float* __restrict b, std::size_t ldb,
    float* __restrict c, std::size_t ldc, const float* __restrict bias) {
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  for (std::size_t l = 0; l < k; ++l) {
    const float* brow = b + l * ldb;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const float* al = a + l * als;
    __m256 av = _mm256_set1_ps(al[0 * ars]);
    acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(av, b0));
    acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(al[1 * ars]);
    acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(av, b0));
    acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(al[2 * ars]);
    acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(av, b0));
    acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(al[3 * ars]);
    acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(av, b0));
    acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(av, b1));
  }
  if (bias != nullptr) {
    const __m256 bias0 = _mm256_loadu_ps(bias);
    const __m256 bias1 = _mm256_loadu_ps(bias + 8);
    acc00 = _mm256_add_ps(acc00, bias0);
    acc01 = _mm256_add_ps(acc01, bias1);
    acc10 = _mm256_add_ps(acc10, bias0);
    acc11 = _mm256_add_ps(acc11, bias1);
    acc20 = _mm256_add_ps(acc20, bias0);
    acc21 = _mm256_add_ps(acc21, bias1);
    acc30 = _mm256_add_ps(acc30, bias0);
    acc31 = _mm256_add_ps(acc31, bias1);
  }
  _mm256_storeu_ps(c + 0 * ldc, acc00);
  _mm256_storeu_ps(c + 0 * ldc + 8, acc01);
  _mm256_storeu_ps(c + 1 * ldc, acc10);
  _mm256_storeu_ps(c + 1 * ldc + 8, acc11);
  _mm256_storeu_ps(c + 2 * ldc, acc20);
  _mm256_storeu_ps(c + 2 * ldc + 8, acc21);
  _mm256_storeu_ps(c + 3 * ldc, acc30);
  _mm256_storeu_ps(c + 3 * ldc + 8, acc31);
}
#endif

// ---------------------------------------------------------------------------
// Pack arena: per-thread scratch for GemmTransB's B-transpose staging,
// replacing the old unbounded `thread_local std::vector` (whose
// retained capacity was invisible to the health plane). Every capacity
// change flows through a process-wide byte counter mirrored into the
// nn.pack_bytes gauge, and a request far below the retained capacity
// shrinks the buffer so one huge pack early in a run does not pin
// memory for its whole lifetime.
// ---------------------------------------------------------------------------

std::atomic<std::size_t> g_pack_bytes{0};

void AccountPackBytes(std::size_t old_cap_bytes, std::size_t new_cap_bytes) {
  std::size_t total;
  if (new_cap_bytes >= old_cap_bytes) {
    const std::size_t delta = new_cap_bytes - old_cap_bytes;
    total = g_pack_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  } else {
    const std::size_t delta = old_cap_bytes - new_cap_bytes;
    total = g_pack_bytes.fetch_sub(delta, std::memory_order_relaxed) - delta;
  }
  ACOBE_GAUGE_SET("nn.pack_bytes", total);
}

class PackArena {
 public:
  ~PackArena() { Release(); }

  float* Acquire(std::size_t floats) {
    // Shrink when holding > 4x the request past 1 MiB: re-allocation is
    // rare (model shapes are stable within a run) and bounded retention
    // is what the health plane's RSS story needs.
    constexpr std::size_t kShrinkFloor = (1u << 20) / sizeof(float);
    if (buf_.capacity() > kShrinkFloor && buf_.capacity() / 4 > floats) {
      const std::size_t old_bytes = buf_.capacity() * sizeof(float);
      std::vector<float>().swap(buf_);
      AccountPackBytes(old_bytes, 0);
      ACOBE_COUNT("nn.pack_shrinks", 1);
    }
    if (buf_.size() < floats) {
      const std::size_t old_bytes = buf_.capacity() * sizeof(float);
      buf_.resize(floats);
      AccountPackBytes(old_bytes, buf_.capacity() * sizeof(float));
    }
    return buf_.data();
  }

  void Release() {
    if (buf_.capacity() == 0) return;
    AccountPackBytes(buf_.capacity() * sizeof(float), 0);
    std::vector<float>().swap(buf_);
  }

 private:
  std::vector<float> buf_;
};

thread_local PackArena t_pack_arena;

// ---------------------------------------------------------------------------
// Blocked tile driver.
// ---------------------------------------------------------------------------

// The full-tile kernel of one ISA level.
MicroKernelFn FullTileKernel(Simd level) {
#ifdef ACOBE_SIMD_X86
  if (level == Simd::kAvx2) return MicroKernelAvx2;
#else
  (void)level;
#endif
  return MicroKernelFull;
}

// C (m x n, row-major, fully overwritten) = A * B (+ bias per row), with
// A addressed as a[r * ars + l * als]. Full kMR x kNR tiles run
// `level`'s full-tile kernel; edge tiles run the portable edge kernel
// (same accumulation order). The j-panel loop is outermost so the
// k x kNR panel of B stays cache-resident while A streams past it once
// per panel.
void BlockedGemm(std::size_t m, std::size_t k, std::size_t n, const float* pa,
                 std::size_t ars, std::size_t als, const float* pb, float* pc,
                 const float* bias, Simd level) {
  const MicroKernelFn full = FullTileKernel(level);
  for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
    const std::size_t nr = n - j0 < kNR ? n - j0 : kNR;
    const float* bpanel = pb + j0;
    const float* bias_panel = bias == nullptr ? nullptr : bias + j0;
    for (std::size_t i0 = 0; i0 < m; i0 += kMR) {
      const std::size_t mr = m - i0 < kMR ? m - i0 : kMR;
      const float* atile = pa + i0 * ars;
      float* ctile = pc + i0 * n + j0;
      if (mr == kMR && nr == kNR) {
        full(k, atile, ars, als, bpanel, n, ctile, n, bias_panel);
      } else {
        MicroKernelEdge(mr, nr, k, atile, ars, als, bpanel, n, ctile, n,
                        bias_panel);
      }
    }
  }
}

inline void AssertNoAlias(const Tensor& c, MatSpan a, MatSpan b) {
#ifndef NDEBUG
  assert(c.data() != a.data && c.data() != b.data);
#else
  (void)c;
  (void)a;
  (void)b;
#endif
}

}  // namespace

std::size_t PackBytesInUse() {
  return g_pack_bytes.load(std::memory_order_relaxed);
}

void ReleaseThreadScratch() { t_pack_arena.Release(); }

namespace detail {

void Gemm(Simd level, MatSpan a, MatSpan b, Tensor& c, const float* bias) {
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  c.ResizeUninit(m, n);
  AssertNoAlias(c, a, b);
  BlockedGemm(m, k, n, a.data, /*ars=*/k, /*als=*/1, b.data, c.data(), bias,
              level);
}

void GemmTransA(Simd level, MatSpan a, MatSpan b, Tensor& c) {
  const std::size_t k = a.rows, m = a.cols, n = b.cols;
  c.ResizeUninit(m, n);
  AssertNoAlias(c, a, b);
  // C[i][j] = sum_l A[l][i] * B[l][j]: row stride through A is 1, term
  // stride is the A row length m.
  BlockedGemm(m, k, n, a.data, /*ars=*/1, /*als=*/m, b.data, c.data(),
              nullptr, level);
}

void GemmTransB(Simd level, MatSpan a, MatSpan b, Tensor& c) {
  const std::size_t m = a.rows, k = a.cols, n = b.rows;
  c.ResizeUninit(m, n);
  AssertNoAlias(c, a, b);
  // C = A B^T has the same per-element accumulation chains as C = A Bt
  // with Bt the explicit transpose, so transposing B once (pure data
  // movement, no arithmetic) lets the blocked driver -- and its
  // vectorize-across-j micro-kernels -- run at full Gemm speed instead
  // of being stuck with scalar dot-product chains. The O(k*n) pack
  // amortizes over the O(m*k*n) math; the arena reuses the buffer
  // across calls, so it allocates during warm-up only, preserving the
  // zero-allocation train loop.
  float* bt = t_pack_arena.Acquire(k * n);
  const float* pb = b.data;
  for (std::size_t j = 0; j < n; ++j) {
    const float* brow = pb + j * k;
    for (std::size_t l = 0; l < k; ++l) bt[l * n + j] = brow[l];
  }
  BlockedGemm(m, k, n, a.data, /*ars=*/k, /*als=*/1, bt, c.data(), nullptr,
              level);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Public entry points: validate shapes, time the call, and run the CPU's
// full-tile kernel (CpuSimd() is resolved once per process).
// ---------------------------------------------------------------------------

void Gemm(MatSpan a, MatSpan b, Tensor& c, const float* bias) {
  if (a.cols != b.rows) throw std::invalid_argument("Gemm: shape mismatch");
  const GemmTimer timer;
  detail::Gemm(CpuSimd(), a, b, c, bias);
  timer.Finish(a.rows, a.cols, b.cols);
}

void GemmTransA(MatSpan a, MatSpan b, Tensor& c) {
  if (a.rows != b.rows) {
    throw std::invalid_argument("GemmTransA: shape mismatch");
  }
  const GemmTimer timer;
  detail::GemmTransA(CpuSimd(), a, b, c);
  timer.Finish(a.cols, a.rows, b.cols);
}

void GemmTransB(MatSpan a, MatSpan b, Tensor& c) {
  if (a.cols != b.cols) {
    throw std::invalid_argument("GemmTransB: shape mismatch");
  }
  const GemmTimer timer;
  detail::GemmTransB(CpuSimd(), a, b, c);
  timer.Finish(a.rows, a.cols, b.rows);
}

namespace reference {

void Gemm(MatSpan a, MatSpan b, Tensor& c, const float* bias) {
  if (a.cols != b.rows) throw std::invalid_argument("Gemm: shape mismatch");
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  c.Resize(m, n);  // accumulates into zeroed output
  const float* pa = a.data;
  const float* pb = b.data;
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t l = 0; l < k; ++l) {
      const float av = arow[l];
      if (av == 0.0f) continue;
      const float* brow = pb + l * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  if (bias != nullptr) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += bias[j];
    }
  }
}

void GemmTransA(MatSpan a, MatSpan b, Tensor& c) {
  if (a.rows != b.rows) {
    throw std::invalid_argument("GemmTransA: shape mismatch");
  }
  const std::size_t k = a.rows, m = a.cols, n = b.cols;
  c.Resize(m, n);
  const float* pa = a.data;
  const float* pb = b.data;
  float* pc = c.data();
  // C[i][j] = sum_l A[l][i] * B[l][j]; iterate l outer for sequential reads.
  for (std::size_t l = 0; l < k; ++l) {
    const float* arow = pa + l * m;
    const float* brow = pb + l * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmTransB(MatSpan a, MatSpan b, Tensor& c) {
  if (a.cols != b.cols) {
    throw std::invalid_argument("GemmTransB: shape mismatch");
  }
  const std::size_t m = a.rows, k = a.cols, n = b.rows;
  c.Resize(m, n);
  const float* pa = a.data;
  const float* pb = b.data;
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (std::size_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
      crow[j] = acc;
    }
  }
}

}  // namespace reference

}  // namespace acobe::nn

