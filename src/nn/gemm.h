#pragma once

// General matrix multiplication entry points used by the dense layers.
// C = A(op) * B(op), with A (m x k), B (k x n), C (m x n) after ops.
//
// One kernel family, chosen from the CPU once and never configured: the
// kernels are cache-blocked and register-tiled, a 4x16 micro-kernel
// driven over contiguous n-panels of B. The full tile runs a no-FMA
// AVX2 kernel where the CPU supports it (CpuSimd(), common/simd.h) and
// a portable auto-vectorized one otherwise. The outer
// per-aspect/per-user parallelism owns the cores, so a single GEMM
// always runs on the calling thread.
//
// Determinism contract: every output element accumulates its k terms in
// ascending-l order into a single accumulator chain, exactly like the
// original scalar kernels (kept below under reference::), and the vector
// paths use separate multiply and add (never FMA; acobe_nn is compiled
// with -ffp-contract=off). Results are therefore bit-identical to the
// scalar reference on every shape with every full-tile kernel --
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

#include "common/simd.h"
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

/// The three GEMM forms on the full-tile kernel of an explicit ISA level,
/// with no shape checks or telemetry. The public entry points above call
/// these with CpuSimd(); tests call them with every level the host
/// supports, so each is parity-checked whichever one the CPU picks.
/// Only pass a level the CPU supports (level <= CpuSimd()).
void Gemm(Simd level, MatSpan a, MatSpan b, Tensor& c, const float* bias);
void GemmTransA(Simd level, MatSpan a, MatSpan b, Tensor& c);
void GemmTransB(Simd level, MatSpan a, MatSpan b, Tensor& c);

}  // namespace detail

}  // namespace acobe::nn
