#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>

#include "common/simd.h"

#ifdef ACOBE_SIMD_X86
#include <immintrin.h>
#endif

namespace acobe::nn {
namespace {

void RequireAttached(const std::vector<Param*>& params) {
  if (params.empty()) {
    throw std::logic_error("Optimizer::Step called before Attach");
  }
}

// One Adam update's scalars, shared by every weight of the step.
struct AdamCoeffs {
  float beta1, one_minus_beta1, beta2, one_minus_beta2;
  float bc1, bc2, lr, epsilon;
};

// The Adam update of n weights, one lane per weight. Every kernel keeps
// this operation order, multiply and add rounded separately:
//   m = b1*m + (1-b1)*g
//   v = b2*v + ((1-b2)*g)*g
//   w -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
using AdamKernelFn = void (*)(const AdamCoeffs& c, const float* g, float* m,
                              float* v, float* w, std::size_t n);

void AdamScalar(const AdamCoeffs& c, const float* g, float* m, float* v,
                float* w, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    m[j] = c.beta1 * m[j] + c.one_minus_beta1 * g[j];
    v[j] = c.beta2 * v[j] + c.one_minus_beta2 * g[j] * g[j];
    const float mhat = m[j] / c.bc1;
    const float vhat = v[j] / c.bc2;
    w[j] -= c.lr * mhat / (std::sqrt(vhat) + c.epsilon);
  }
}

#ifdef ACOBE_SIMD_X86
// Eight weights per iteration. vsqrtps and vdivps are correctly rounded
// like their scalar forms, so each lane is bit-identical to AdamScalar.
__attribute__((target("avx2"))) void AdamAvx2(const AdamCoeffs& c,
                                              const float* g, float* m,
                                              float* v, float* w,
                                              std::size_t n) {
  const __m256 beta1 = _mm256_set1_ps(c.beta1);
  const __m256 one_minus_beta1 = _mm256_set1_ps(c.one_minus_beta1);
  const __m256 beta2 = _mm256_set1_ps(c.beta2);
  const __m256 one_minus_beta2 = _mm256_set1_ps(c.one_minus_beta2);
  const __m256 bc1 = _mm256_set1_ps(c.bc1);
  const __m256 bc2 = _mm256_set1_ps(c.bc2);
  const __m256 lr = _mm256_set1_ps(c.lr);
  const __m256 epsilon = _mm256_set1_ps(c.epsilon);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 gv = _mm256_loadu_ps(g + j);
    const __m256 mv =
        _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_loadu_ps(m + j)),
                      _mm256_mul_ps(one_minus_beta1, gv));
    const __m256 vv = _mm256_add_ps(
        _mm256_mul_ps(beta2, _mm256_loadu_ps(v + j)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, gv), gv));
    _mm256_storeu_ps(m + j, mv);
    _mm256_storeu_ps(v + j, vv);
    const __m256 step =
        _mm256_div_ps(_mm256_mul_ps(lr, _mm256_div_ps(mv, bc1)),
                      _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vv, bc2)),
                                    epsilon));
    _mm256_storeu_ps(w + j, _mm256_sub_ps(_mm256_loadu_ps(w + j), step));
  }
  AdamScalar(c, g + j, m + j, v + j, w + j, n - j);
}
#endif

AdamKernelFn CpuAdamKernel() {
#ifdef ACOBE_SIMD_X86
  if (CpuSimd() == Simd::kAvx2) return AdamAvx2;
#endif
  return AdamScalar;
}

}  // namespace

Adam::Adam(float lr, float beta1, float beta2, float epsilon)
    : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

void Adam::Attach(std::vector<Param*> params) {
  params_ = std::move(params);
  m_.clear();
  v_.clear();
  step_ = 0;
  for (Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  RequireAttached(params_);
  ++step_;
  const AdamCoeffs c{
      .beta1 = beta1_,
      .one_minus_beta1 = 1.0f - beta1_,
      .beta2 = beta2_,
      .one_minus_beta2 = 1.0f - beta2_,
      .bc1 = 1.0f - std::pow(beta1_, static_cast<float>(step_)),
      .bc2 = 1.0f - std::pow(beta2_, static_cast<float>(step_)),
      .lr = lr_,
      .epsilon = epsilon_};
  const AdamKernelFn kernel = CpuAdamKernel();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    kernel(c, p.grad.data(), m_[i].data(), v_[i].data(), p.value.data(),
           p.value.size());
  }
}

Adadelta::Adadelta(float lr, float rho, float epsilon)
    : lr_(lr), rho_(rho), epsilon_(epsilon) {}

void Adadelta::Attach(std::vector<Param*> params) {
  params_ = std::move(params);
  accum_grad_.clear();
  accum_update_.clear();
  for (Param* p : params_) {
    accum_grad_.emplace_back(p->value.rows(), p->value.cols());
    accum_update_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adadelta::Step() {
  RequireAttached(params_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const float g = p.grad.data()[j];
      float& eg2 = accum_grad_[i].data()[j];
      float& ex2 = accum_update_[i].data()[j];
      eg2 = rho_ * eg2 + (1.0f - rho_) * g * g;
      const float update =
          -std::sqrt(ex2 + epsilon_) / std::sqrt(eg2 + epsilon_) * g;
      ex2 = rho_ * ex2 + (1.0f - rho_) * update * update;
      p.value.data()[j] += lr_ * update;
    }
  }
}

}  // namespace acobe::nn
