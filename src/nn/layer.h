#pragma once

// Layer abstraction for the dense autoencoder stack.
//
// Layers process batches (batch x features) through an in-place,
// buffer-reusing API: Forward writes into a caller-owned output tensor
// and Backward receives the same input/output tensors plus dL/d(output),
// writing dL/d(input) into a caller-owned buffer and accumulating
// dL/d(param) into each Param's grad tensor. Sequential owns the
// activation tape (see TrainScratch in sequential.h), so layers never
// deep-copy their inputs; whatever a layer must remember beyond (x, y)
// -- batch-norm's normalized batch -- lives in member buffers that
// are resized in place and reused across batches. After warm-up, a
// train step performs no heap allocation.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace acobe::nn {

/// A trainable parameter: value plus gradient accumulator of equal shape.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for input batch `x` into `y` (resized by
  /// the layer; callers reuse `y` across batches). `training` switches
  /// batch-norm between batch statistics and running statistics. `x`
  /// and `y` must be distinct tensors and stay alive (and unmodified)
  /// until Backward if a backward pass follows.
  virtual void Forward(const Tensor& x, Tensor& y, bool training) = 0;

  /// Given the `x`/`y` pair of the preceding Forward call and
  /// dL/d(output) in `g`, accumulates parameter gradients and -- when
  /// `need_dx` -- writes dL/d(input) into `dx` (resized by the layer).
  /// Callers pass need_dx = false for the first layer of a network,
  /// skipping its input-gradient computation entirely.
  virtual void Backward(const Tensor& x, const Tensor& y, const Tensor& g,
                        Tensor& dx, bool need_dx) = 0;

  /// Inference-only forward pass writing into caller-owned `y`. Unlike
  /// Forward, this mutates no layer state (no activation caches, no
  /// running-statistics updates), so it is safe to call concurrently on
  /// a shared trained model -- one output tensor per thread. Must
  /// produce bit-identical values to Forward(x, y, /*training=*/false).
  /// BatchNorm uses running statistics. Takes a MatSpan so scoring can
  /// stream row blocks of a dataset without copying them into a batch
  /// tensor.
  virtual void Infer(MatSpan x, Tensor& y) const = 0;

  /// Trainable parameters (empty for activations).
  virtual std::vector<Param*> Params() { return {}; }

  /// Initializes parameters from `rng` (no-op for parameterless layers).
  virtual void InitParams(Rng& /*rng*/) {}

  /// Layer type tag used by serialization.
  virtual std::string TypeName() const = 0;

  /// Output width given input width (dense layers change it).
  virtual std::size_t OutputDim(std::size_t input_dim) const {
    return input_dim;
  }
};

}  // namespace acobe::nn
