#pragma once

// Deep fully-connected autoencoder, built per the paper's architecture:
// Dense+ReLU encoder (e.g. 512-256-128-64), mirrored decoder, optional
// BatchNorm between layers, sigmoid output head (inputs are scaled to
// [0,1] before training).

#include <cstddef>
#include <iterator>
#include <vector>

#include "nn/sequential.h"

namespace acobe::nn {

/// The paper's encoder widths, outer to inner.
inline constexpr std::size_t kPaperEncoderDims[] = {512, 256, 128, 64};

struct AutoencoderSpec {
  std::size_t input_dim = 0;
  /// Encoder widths outer-to-inner; decoder mirrors them. Copied from a
  /// static array rather than a braced list, whose temporary backing
  /// array GCC 12 flags as dangling once this initializer is inlined.
  std::vector<std::size_t> encoder_dims{std::begin(kPaperEncoderDims),
                                        std::end(kPaperEncoderDims)};
  bool batch_norm = true;
  bool sigmoid_output = true;
};

/// Builds the full encoder+decoder stack. Parameters are uninitialized;
/// call InitParams with a seeded Rng.
Sequential BuildAutoencoder(const AutoencoderSpec& spec);

/// Hidden widths scaled for reduced-scale experiments: each paper width
/// divided by `divisor` (floored at 8), preserving the 4-layer funnel.
std::vector<std::size_t> ScaledEncoderDims(std::size_t divisor);

}  // namespace acobe::nn
