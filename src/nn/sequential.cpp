#include "nn/sequential.h"

#include <algorithm>
#include <stdexcept>

namespace acobe::nn {

const Tensor& Sequential::Forward(const Tensor& x, TrainScratch& scratch,
                                  bool training) {
  scratch.input = &x;
  if (scratch.acts.size() != layers_.size()) {
    scratch.acts.resize(layers_.size());  // one-time warm-up only
  }
  const Tensor* in = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->Forward(*in, scratch.acts[i], training);
    in = &scratch.acts[i];
  }
  return *in;
}

const Tensor* Sequential::Backward(const Tensor& grad_output,
                                   TrainScratch& scratch,
                                   bool need_input_grad) {
  if (scratch.input == nullptr || scratch.acts.size() != layers_.size()) {
    throw std::logic_error("Sequential::Backward: no matching Forward");
  }
  const Tensor* g = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const Tensor& x = i == 0 ? *scratch.input : scratch.acts[i - 1];
    const bool need_dx = need_input_grad || i > 0;
    Tensor& dx = g == &scratch.grad_a ? scratch.grad_b : scratch.grad_a;
    layers_[i]->Backward(x, scratch.acts[i], *g, dx, need_dx);
    if (need_dx) g = &dx;
  }
  return need_input_grad || layers_.empty() ? g : nullptr;
}

const Tensor& Sequential::Infer(MatSpan x, InferScratch& scratch) const {
  if (layers_.empty()) {
    scratch.buf[0].ResizeUninit(x.rows, x.cols);
    std::copy(x.data, x.data + x.size(), scratch.buf[0].data());
    return scratch.buf[0];
  }
  // First layer consumes the view; the rest ping-pong between buffers.
  layers_[0]->Infer(x, scratch.buf[0]);
  const Tensor* in = &scratch.buf[0];
  int cur = 1;
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    Tensor& out = scratch.buf[cur];
    layers_[i]->Infer(*in, out);
    in = &out;
    cur ^= 1;
  }
  return *in;
}

const std::vector<Param*>& Sequential::CachedParams() {
  if (params_dirty_) {
    params_cache_.clear();
    for (auto& l : layers_) {
      for (Param* p : l->Params()) params_cache_.push_back(p);
    }
    params_dirty_ = false;
  }
  return params_cache_;
}

std::vector<Param*> Sequential::Params() { return CachedParams(); }

void Sequential::ZeroGrad() {
  for (Param* p : CachedParams()) p->grad.Fill(0.0f);
}

float MseLoss(const Tensor& pred, const Tensor& target, Tensor& grad) {
  if (!pred.SameShape(target)) {
    throw std::invalid_argument("MseLoss: shape mismatch");
  }
  grad.ResizeUninit(pred.rows(), pred.cols());
  const float scale = 2.0f / static_cast<float>(pred.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = pred.data()[i] - target.data()[i];
    loss += static_cast<double>(d) * d;
    grad.data()[i] = scale * d;
  }
  return static_cast<float>(loss / static_cast<double>(pred.size()));
}

void PerSampleMse(const Tensor& pred, MatSpan target, float* out) {
  if (pred.rows() != target.rows || pred.cols() != target.cols) {
    throw std::invalid_argument("PerSampleMse: shape mismatch");
  }
  for (std::size_t r = 0; r < pred.rows(); ++r) {
    double acc = 0.0;
    const float* p = pred.data() + r * pred.cols();
    const float* t = target.RowPtr(r);
    for (std::size_t c = 0; c < pred.cols(); ++c) {
      const float d = p[c] - t[c];
      acc += static_cast<double>(d) * d;
    }
    out[r] = static_cast<float>(acc / static_cast<double>(pred.cols()));
  }
}

std::vector<float> PerSampleMse(const Tensor& pred, MatSpan target) {
  std::vector<float> out(pred.rows());
  PerSampleMse(pred, target, out.data());
  return out;
}

}  // namespace acobe::nn
