#include "nn/dense.h"

#include <cmath>
#include <stdexcept>

#include "nn/gemm.h"

namespace acobe::nn {

Dense::Dense(std::size_t in_dim, std::size_t out_dim)
    : in_dim_(in_dim), out_dim_(out_dim), weight_{"W", {}, {}},
      bias_{"b", {}, {}} {
  if (in_dim == 0 || out_dim == 0) {
    throw std::invalid_argument("Dense: zero dimension");
  }
  weight_.value.Resize(in_dim, out_dim);
  weight_.grad.Resize(in_dim, out_dim);
  bias_.value.Resize(1, out_dim);
  bias_.grad.Resize(1, out_dim);
}

void Dense::InitParams(Rng& rng) {
  // Glorot/Xavier uniform, the Keras Dense default the paper's
  // implementation would have used.
  const float limit =
      std::sqrt(6.0f / static_cast<float>(in_dim_ + out_dim_));
  for (std::size_t i = 0; i < weight_.value.size(); ++i) {
    weight_.value.data()[i] =
        static_cast<float>(rng.NextUniform(-limit, limit));
  }
  bias_.value.Fill(0.0f);
}

void Dense::Forward(const Tensor& x, Tensor& y, bool /*training*/) {
  if (x.cols() != in_dim_) throw std::invalid_argument("Dense: bad input dim");
  Gemm(x, weight_.value, y, bias_.value.data());
}

void Dense::Infer(MatSpan x, Tensor& y) const {
  if (x.cols != in_dim_) throw std::invalid_argument("Dense: bad input dim");
  Gemm(x, weight_.value, y, bias_.value.data());
}

void Dense::Backward(const Tensor& x, const Tensor& /*y*/, const Tensor& g,
                     Tensor& dx, bool need_dx) {
  if (g.cols() != out_dim_ || g.rows() != x.rows()) {
    throw std::invalid_argument("Dense::Backward: bad grad shape");
  }
  // dW += x^T g ; db += sum_rows g ; dx = g W^T.
  // The GEMM overwrites its output, so dW lands in a reusable staging
  // buffer and is folded into the accumulator, keeping the add order of
  // grad += contribution per call.
  GemmTransA(x, g, dw_);
  for (std::size_t i = 0; i < dw_.size(); ++i) {
    weight_.grad.data()[i] += dw_.data()[i];
  }
  for (std::size_t r = 0; r < g.rows(); ++r) {
    const float* row = g.data() + r * out_dim_;
    float* db = bias_.grad.data();
    for (std::size_t c = 0; c < out_dim_; ++c) db[c] += row[c];
  }
  if (need_dx) GemmTransB(g, weight_.value, dx);
}

}  // namespace acobe::nn
