#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "common/faults.h"
#include "nn/batchnorm.h"

namespace acobe::nn {
namespace {

constexpr char kTag[] = "ACAE";
constexpr std::uint32_t kVersion = 3;

// Hostile-input ceilings: reject absurd header values before they turn
// into multi-gigabyte allocations.
constexpr std::uint32_t kMaxDim = 1u << 20;
constexpr std::uint32_t kMaxDepth = 64;

template <typename Fn>
void ForEachStateTensor(Sequential& net, Fn&& fn) {
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    Layer& layer = net.layer(i);
    for (Param* p : layer.Params()) fn(p->value);
    if (auto* bn = dynamic_cast<BatchNorm*>(&layer)) {
      fn(bn->running_mean());
      fn(bn->running_var());
    }
  }
}

}  // namespace

void SaveAutoencoder(const AutoencoderSpec& spec, Sequential& net,
                     std::ostream& out) {
  RecordWriter w;
  w.U32(static_cast<std::uint32_t>(spec.input_dim));
  w.Count(spec.encoder_dims.size());
  for (std::size_t d : spec.encoder_dims) w.U32(static_cast<std::uint32_t>(d));
  w.U32(spec.batch_norm ? 1 : 0);
  w.U32(spec.sigmoid_output ? 1 : 0);
  ForEachStateTensor(net, [&](Tensor& t) {
    w.U32(static_cast<std::uint32_t>(t.rows()));
    w.U32(static_cast<std::uint32_t>(t.cols()));
    w.Floats({t.data(), t.size()});
  });
  WriteRecord(out, kTag, kVersion, w.payload());
}

Sequential LoadAutoencoder(std::istream& in, AutoencoderSpec& spec_out) {
  const std::string payload = ReadRecord(in, kTag, kVersion, "LoadAutoencoder");
  RecordReader r(payload, "LoadAutoencoder");
  AutoencoderSpec spec;
  const std::uint32_t input_dim = r.U32();
  if (input_dim == 0 || input_dim > kMaxDim) r.Fail("implausible input dim");
  spec.input_dim = input_dim;
  const std::size_t depth = r.Count(sizeof(std::uint32_t), "encoder depth");
  if (depth == 0 || depth > kMaxDepth) r.Fail("implausible encoder depth");
  spec.encoder_dims.clear();
  // The decoder mirrors the encoder, so the weights hold at least twice
  // the encoder chain's in*out products; they must fit in what is left.
  std::uint64_t weights = 0;
  std::uint64_t prev = input_dim;
  for (std::size_t i = 0; i < depth; ++i) {
    const std::uint32_t dim = r.U32();
    if (dim == 0 || dim > kMaxDim) r.Fail("implausible layer dim");
    spec.encoder_dims.push_back(dim);
    weights += 2 * prev * dim;
    prev = dim;
  }
  spec.batch_norm = r.U32() != 0;
  spec.sigmoid_output = r.U32() != 0;
  if (weights > r.remaining() / sizeof(float)) {
    r.Fail("implausible layer dims for the bytes left");
  }

  Sequential net = BuildAutoencoder(spec);
  ForEachStateTensor(net, [&](Tensor& t) {
    const std::uint32_t rows = r.U32();
    const std::uint32_t cols = r.U32();
    if (rows != t.rows() || cols != t.cols()) r.Fail("tensor shape mismatch");
    r.Floats({t.data(), t.size()});
  });
  r.ExpectEnd();
  spec_out = spec;
  return net;
}

void SaveAutoencoderFile(const AutoencoderSpec& spec, Sequential& net,
                         const std::string& path) {
  WriteFileAtomic(path,
                  [&](std::ostream& out) { SaveAutoencoder(spec, net, out); });
}

Sequential LoadAutoencoderFile(const std::string& path,
                               AutoencoderSpec& spec_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("LoadAutoencoderFile: cannot open " + path);
  return LoadAutoencoder(in, spec_out);
}

}  // namespace acobe::nn
