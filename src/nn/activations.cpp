#include "nn/activations.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
  const float* gp = g.data();
  const float* yp = y.data();
  float* out = dx.data();
  // Same arithmetic as multiplying by a saved 0/1 mask.
  for (std::size_t i = 0; i < g.size(); ++i) {
    out[i] = gp[i] * (yp[i] > 0.0f ? 1.0f : 0.0f);
  }
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

Dropout::Dropout(float rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("Dropout: rate must be in [0,1)");
  }
}

void Dropout::Forward(const Tensor& x, Tensor& y, bool training) {
  last_training_ = training && rate_ > 0.0f;
  y.ResizeUninit(x.rows(), x.cols());
  if (!last_training_) {
    mask_.ResizeUninit(x.rows(), x.cols());
    mask_.Fill(1.0f);
    std::copy(x.data(), x.data() + x.size(), y.data());
    return;
  }
  mask_.ResizeUninit(x.rows(), x.cols());
  const float scale = 1.0f / (1.0f - rate_);
  const float* in = x.data();
  float* mp = mask_.data();
  float* out = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool keep = !rng_.NextBernoulli(rate_);
    mp[i] = keep ? scale : 0.0f;
    out[i] = in[i] * mp[i];
  }
}

void Dropout::Infer(MatSpan x, Tensor& y) const {
  // Inverted dropout needs no inference-time correction.
  y.ResizeUninit(x.rows, x.cols);
  std::copy(x.data, x.data + x.size(), y.data());
}

void Dropout::Backward(const Tensor& /*x*/, const Tensor& /*y*/,
                       const Tensor& g, Tensor& dx, bool need_dx) {
  if (!g.SameShape(mask_)) {
    throw std::invalid_argument("Dropout::Backward: bad grad shape");
  }
  if (!need_dx) return;
  dx.ResizeUninit(g.rows(), g.cols());
  const float* gp = g.data();
  const float* mp = mask_.data();
  float* out = dx.data();
  for (std::size_t i = 0; i < g.size(); ++i) out[i] = gp[i] * mp[i];
}

}  // namespace acobe::nn
