#include "nn/autoencoder.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"

namespace acobe::nn {

Sequential BuildAutoencoder(const AutoencoderSpec& spec) {
  if (spec.input_dim == 0) {
    throw std::invalid_argument("BuildAutoencoder: input_dim == 0");
  }
  if (spec.encoder_dims.empty()) {
    throw std::invalid_argument("BuildAutoencoder: empty encoder_dims");
  }
  Sequential net;
  auto add_block = [&](std::size_t in, std::size_t out, bool relu) {
    net.Add(std::make_unique<Dense>(in, out));
    if (spec.batch_norm) net.Add(std::make_unique<BatchNorm>(out));
    if (relu) net.Add(std::make_unique<ReLU>());
  };

  // Encoder.
  std::size_t prev = spec.input_dim;
  for (std::size_t width : spec.encoder_dims) {
    add_block(prev, width, /*relu=*/true);
    prev = width;
  }
  // Decoder mirrors the encoder, skipping the innermost width (it is the
  // code) and ending at the input dimension.
  for (std::size_t i = spec.encoder_dims.size(); i-- > 1;) {
    add_block(prev, spec.encoder_dims[i - 1], /*relu=*/true);
    prev = spec.encoder_dims[i - 1];
  }
  net.Add(std::make_unique<Dense>(prev, spec.input_dim));
  if (spec.sigmoid_output) net.Add(std::make_unique<Sigmoid>());
  return net;
}

std::vector<std::size_t> ScaledEncoderDims(std::size_t divisor) {
  if (divisor == 0) throw std::invalid_argument("ScaledEncoderDims: divisor==0");
  std::vector<std::size_t> dims(std::begin(kPaperEncoderDims),
                                std::end(kPaperEncoderDims));
  for (std::size_t& d : dims) d = std::max<std::size_t>(8, d / divisor);
  return dims;
}

}  // namespace acobe::nn
