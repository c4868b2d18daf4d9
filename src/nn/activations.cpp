#include "nn/activations.h"

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

}  // namespace acobe::nn
