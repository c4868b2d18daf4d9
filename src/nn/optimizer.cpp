#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>

namespace acobe::nn {
namespace {

void RequireAttached(const std::vector<Param*>& params) {
  if (params.empty()) {
    throw std::logic_error("Optimizer::Step called before Attach");
  }
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
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const float g = p.grad.data()[j];
      float& m = m_[i].data()[j];
      float& v = v_[i].data()[j];
      m = beta1_ * m + (1.0f - beta1_) * g;
      v = beta2_ * v + (1.0f - beta2_) * g * g;
      const float mhat = m / bc1;
      const float vhat = v / bc2;
      p.value.data()[j] -= lr_ * mhat / (std::sqrt(vhat) + epsilon_);
    }
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
