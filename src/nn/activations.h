#pragma once

// Elementwise activation layers.

#include "nn/layer.h"

namespace acobe::nn {

/// ReLU keeps no state: the backward mask is recomputed from the output
/// tensor (y > 0 exactly when x > 0), which Sequential's activation
/// tape already retains.
class ReLU : public Layer {
 public:
  void Forward(const Tensor& x, Tensor& y, bool training) override;
  void Backward(const Tensor& x, const Tensor& y, const Tensor& g, Tensor& dx,
                bool need_dx) override;
  void Infer(MatSpan x, Tensor& y) const override;
  std::string TypeName() const override { return "relu"; }
};

/// Sigmoid keeps no state: backward reads the saved output y directly
/// (dL/dx = g * y * (1 - y)).
class Sigmoid : public Layer {
 public:
  void Forward(const Tensor& x, Tensor& y, bool training) override;
  void Backward(const Tensor& x, const Tensor& y, const Tensor& g, Tensor& dx,
                bool need_dx) override;
  void Infer(MatSpan x, Tensor& y) const override;
  std::string TypeName() const override { return "sigmoid"; }
};

}  // namespace acobe::nn
