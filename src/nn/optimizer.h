#pragma once

// First-order optimizers. The paper trains with Adadelta; Adam
// converges in far fewer epochs and is used at reduced scale.

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace acobe::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Registers the parameters to optimize; must be called once before Step.
  virtual void Attach(std::vector<Param*> params) = 0;

  /// Applies one update using each param's accumulated gradient.
  virtual void Step() = 0;

  virtual std::string Name() const = 0;
};

class Adam : public Optimizer {
 public:
  explicit Adam(float lr = 1e-3f, float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-7f);
  void Attach(std::vector<Param*> params) override;
  void Step() override;
  std::string Name() const override { return "adam"; }

 private:
  float lr_, beta1_, beta2_, epsilon_;
  long step_ = 0;
  std::vector<Param*> params_;
  std::vector<Tensor> m_, v_;
};

/// Adadelta (Zeiler 2012) as in tf.keras: accumulates decaying averages
/// of squared gradients and squared updates; `lr` scales the computed
/// update (Keras default 0.001 learns impractically slowly; we default
/// to the classical 1.0).
class Adadelta : public Optimizer {
 public:
  explicit Adadelta(float lr = 1.0f, float rho = 0.95f,
                    float epsilon = 1e-6f);
  void Attach(std::vector<Param*> params) override;
  void Step() override;
  std::string Name() const override { return "adadelta"; }

 private:
  float lr_, rho_, epsilon_;
  std::vector<Param*> params_;
  std::vector<Tensor> accum_grad_, accum_update_;
};

}  // namespace acobe::nn
