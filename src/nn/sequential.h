#pragma once

// Sequential container of layers plus the MSE loss used throughout the
// paper (autoencoders are trained by minimizing ||X - (psi.phi)(X)||).

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace acobe::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void Add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    params_dirty_ = true;
  }

  std::size_t LayerCount() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Initializes all parameters from `rng` (deterministic given the seed).
  void InitParams(Rng& rng) {
    for (auto& l : layers_) l->InitParams(rng);
  }

  /// Caller-owned activation workspace for Infer. Reusing one scratch
  /// across calls (per thread) keeps inference allocation-free once the
  /// buffers reach steady-state capacity.
  struct InferScratch {
    Tensor buf[2];
  };

  /// Caller-owned training workspace: the activation tape (one tensor
  /// per layer; acts.back() is the prediction) plus two ping-pong
  /// gradient buffers for the backward pass. Reusing one scratch across
  /// batches makes the whole train step allocation-free after warm-up.
  /// Forward records a pointer to its input batch in `input`, so the
  /// batch tensor must outlive the matching Backward call.
  struct TrainScratch {
    std::vector<Tensor> acts;
    Tensor grad_a, grad_b;
    const Tensor* input = nullptr;
  };

  /// Full forward pass over a batch; activations land in `scratch` and
  /// the returned reference (the prediction) points into it, valid
  /// until the scratch is reused.
  const Tensor& Forward(const Tensor& x, TrainScratch& scratch,
                        bool training);

  /// Full backward pass; call after Forward with the same scratch (and
  /// with the input batch still alive). Accumulates parameter
  /// gradients. Returns dL/d(input) -- a reference into `scratch` --
  /// when `need_input_grad`, otherwise skips computing it and returns
  /// nullptr.
  const Tensor* Backward(const Tensor& grad_output, TrainScratch& scratch,
                         bool need_input_grad = false);

  /// Convenience overloads with an internal workspace, returning
  /// copies. The training hot path uses the scratch forms above.
  Tensor Forward(const Tensor& x, bool training) {
    own_input_ = x;
    return Tensor(Forward(own_input_, own_scratch_, training));
  }
  Tensor Backward(const Tensor& grad_output) {
    return Tensor(*Backward(grad_output, own_scratch_,
                            /*need_input_grad=*/true));
  }

  /// Inference-only forward pass: const and thread-safe on a trained
  /// model (activations live in `scratch`, not in the layers; batch-norm
  /// uses running statistics). Bit-identical to
  /// Forward(x, /*training=*/false). The returned reference points into
  /// `scratch` and is valid until its next use. Accepts row-block views
  /// (see MatSpan) as well as whole tensors.
  const Tensor& Infer(MatSpan x, InferScratch& scratch) const;

  /// Convenience overload with a private workspace.
  Tensor Infer(MatSpan x) const {
    InferScratch scratch;
    return Infer(x, scratch);
  }

  /// All trainable parameters, in layer order.
  std::vector<Param*> Params();

  /// Zeroes every parameter gradient.
  void ZeroGrad();

 private:
  // Flat parameter list, rebuilt after Add; ZeroGrad runs every batch
  // and must not re-collect (and re-allocate) it each time. Layer
  // objects are heap-owned, so the pointers survive moves of *this.
  const std::vector<Param*>& CachedParams();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Param*> params_cache_;
  bool params_dirty_ = true;
  // Workspace backing the convenience Forward/Backward overloads.
  TrainScratch own_scratch_;
  Tensor own_input_;
};

/// Mean-squared-error loss over a batch: mean over all elements of
/// (pred - target)^2. Writes dL/dpred into `grad` (same shape).
float MseLoss(const Tensor& pred, const Tensor& target, Tensor& grad);

/// Per-row (per-sample) mean squared reconstruction error; this is the
/// anomaly score the paper uses. The pointer form writes the
/// pred.rows() errors to `out` (no allocation); the vector form is a
/// convenience wrapper.
void PerSampleMse(const Tensor& pred, MatSpan target, float* out);
std::vector<float> PerSampleMse(const Tensor& pred, MatSpan target);

}  // namespace acobe::nn
