#include "nn/activations.h"

#include <cmath>
#include <stdexcept>

#include "common/simd.h"

#ifdef ACOBE_SIMD_X86
#include <immintrin.h>
#endif

namespace acobe::nn {

namespace {

// The scalar kernels shared by each layer's Forward (training) and
// Infer paths, so both compute bit-identical activations.
void ScalarRelu(const float* in, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i];
    out[i] = v > 0.0f ? v : 0.0f;
  }
}

void ScalarSigmoid(const float* in, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-in[i]));
  }
}

// ReLU backward: dx = g * (y > 0 ? 1 : 0). The factor is a 0.0/1.0
// value built without a branch and then *multiplied* in: masking g
// with AND instead would turn -g*0 into +0 and NaN*0 into 0, which
// changes bits.
using ReluBackwardFn = void (*)(const float* g, const float* y, float* out,
                                std::size_t n);

void ReluBackwardScalar(const float* g, const float* y, float* out,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = g[i] * static_cast<float>(y[i] > 0.0f);
  }
}

#ifdef ACOBE_SIMD_X86
__attribute__((target("avx2"))) void ReluBackwardAvx2(const float* g,
                                                      const float* y,
                                                      float* out,
                                                      std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Ordered compare: a NaN y yields factor 0, as `y > 0` does.
    const __m256 factor = _mm256_and_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(y + i), zero, _CMP_GT_OQ), one);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), factor));
  }
  ReluBackwardScalar(g + i, y + i, out + i, n - i);
}
#endif

ReluBackwardFn CpuReluBackward() {
#ifdef ACOBE_SIMD_X86
  if (CpuSimd() == Simd::kAvx2) return ReluBackwardAvx2;
#endif
  return ReluBackwardScalar;
}

}  // namespace

void ReLU::Forward(const Tensor& x, Tensor& y, bool /*training*/) {
  y.ResizeUninit(x.rows(), x.cols());
  ScalarRelu(x.data(), y.data(), x.size());
}

void ReLU::Infer(MatSpan x, Tensor& y) const {
  y.ResizeUninit(x.rows, x.cols);
  ScalarRelu(x.data, y.data(), x.size());
}

void ReLU::Backward(const Tensor& /*x*/, const Tensor& y, const Tensor& g,
                    Tensor& dx, bool need_dx) {
  if (!g.SameShape(y)) {
    throw std::invalid_argument("ReLU::Backward: bad grad shape");
  }
  if (!need_dx) return;
  dx.ResizeUninit(g.rows(), g.cols());
  CpuReluBackward()(g.data(), y.data(), dx.data(), g.size());
}

void Sigmoid::Forward(const Tensor& x, Tensor& y, bool /*training*/) {
  y.ResizeUninit(x.rows(), x.cols());
  ScalarSigmoid(x.data(), y.data(), x.size());
}

void Sigmoid::Infer(MatSpan x, Tensor& y) const {
  y.ResizeUninit(x.rows, x.cols);
  ScalarSigmoid(x.data, y.data(), x.size());
}

void Sigmoid::Backward(const Tensor& /*x*/, const Tensor& y, const Tensor& g,
                       Tensor& dx, bool need_dx) {
  if (!g.SameShape(y)) {
    throw std::invalid_argument("Sigmoid::Backward: bad grad shape");
  }
  if (!need_dx) return;
  dx.ResizeUninit(g.rows(), g.cols());
  const float* gp = g.data();
  const float* yp = y.data();
  float* out = dx.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float s = yp[i];
    out[i] = gp[i] * (s * (1.0f - s));
  }
}

}  // namespace acobe::nn
