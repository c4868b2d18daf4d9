#pragma once

// General matrix multiplication entry points used by the dense layers.
// C = A(op) * B(op), with A (m x k), B (k x n), C (m x n) after ops.
//
// One kernel family, chosen from the CPU once and never configured: the
// kernels are cache-blocked and register-tiled, a 4x16 micro-kernel
// driven over contiguous n-panels of B, with a no-FMA AVX2 full-tile
// kernel where the CPU supports it and a portable auto-vectorized one
// otherwise. The outer per-aspect/per-user parallelism owns the cores,
// so a single GEMM always runs on the calling thread.
//
// Determinism contract: every output element accumulates its k terms in
// ascending-l order into a single accumulator chain, exactly like the
// original scalar kernels (kept below under reference::), and the AVX2
// path uses separate multiply and add (never FMA; gemm.cpp is compiled
// with -ffp-contract=off). Results are therefore bit-identical to the
// scalar reference on every shape with either full-tile kernel --
// pinned by tests/gemm_test.cpp -- which is what keeps trained models
// and score grids reproducible across CPUs and kernel generations.
//
// The output tensor is resized with ResizeUninit and fully written
// (write-then-accumulate): kernels do not depend on Tensor::Resize's
// zero-fill. When `bias` (length n) is non-null, Gemm adds it to every
// output row in the write-back epilogue, fusing Dense's bias add into
// the GEMM at identical arithmetic (one add per element, after the
// k-chain).
//
// Scratch: GemmTransB stages B's transpose in a per-thread pack arena,
// accounted in the nn.pack_bytes gauge and shrunk when a request is far
// below the retained capacity.

#include <cstddef>

#include "nn/tensor.h"

namespace acobe::nn {

/// The kernel-family name tools stamp as BuildInfo::nn_backend
/// ("nn-backend:" in --version, "nn_backend" in ledger manifests and
/// explain reports).
inline constexpr const char kKernelFamily[] = "default";

/// C = A * B (+ bias per row). Shapes: A (m,k), B (k,n), C resized to
/// (m,n); bias, when given, has n elements.
void Gemm(MatSpan a, MatSpan b, Tensor& c, const float* bias = nullptr);

/// C = A^T * B. Shapes: A (k,m), B (k,n), C resized to (m,n).
void GemmTransA(MatSpan a, MatSpan b, Tensor& c);

/// C = A * B^T. Shapes: A (m,k), B (n,k), C resized to (m,n).
void GemmTransB(MatSpan a, MatSpan b, Tensor& c);

/// Bytes currently held by all per-thread pack arenas (process-wide;
/// mirrored in the nn.pack_bytes gauge when metrics are enabled).
std::size_t PackBytesInUse();

/// Frees the calling thread's pack arena immediately (it re-grows on
/// demand). Worker threads release automatically at thread exit.
void ReleaseThreadScratch();

namespace reference {

// The original scalar triple-loop kernels, kept as the parity baseline
// for tests/gemm_test.cpp and the BM_GemmRef benchmarks. Same
// signatures and accumulation order as the blocked kernels above.
void Gemm(MatSpan a, MatSpan b, Tensor& c, const float* bias = nullptr);
void GemmTransA(MatSpan a, MatSpan b, Tensor& c);
void GemmTransB(MatSpan a, MatSpan b, Tensor& c);

}  // namespace reference

namespace detail {

/// Full-tile GEMM micro-kernel: computes a 4 x 16 tile of C with
/// per-element accumulator chains in ascending-k order. `ars`/`als` are
/// A's row/term strides, so one kernel serves both the plain and the
/// A-transposed layouts.
using MicroKernelFn = void (*)(std::size_t k, const float* a,
                               std::size_t ars, std::size_t als,
                               const float* b, std::size_t ldb, float* c,
                               std::size_t ldc, const float* bias);

/// The portable full-tile kernel: the one the public entry points run
/// on CPUs without AVX2.
MicroKernelFn PortableKernel();

/// The three GEMM forms with an explicit full-tile kernel and no shape
/// checks or telemetry. The public entry points above call these with
/// the CPU's kernel; tests call them with PortableKernel() so the
/// non-AVX2 path is parity-checked on every host.
void Gemm(MicroKernelFn full, MatSpan a, MatSpan b, Tensor& c,
          const float* bias);
void GemmTransA(MicroKernelFn full, MatSpan a, MatSpan b, Tensor& c);
void GemmTransB(MicroKernelFn full, MatSpan a, MatSpan b, Tensor& c);

}  // namespace detail

}  // namespace acobe::nn
