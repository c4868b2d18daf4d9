#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/faults.h"
#include "nn/batchnorm.h"

namespace acobe::nn {
namespace {

// v2 frame: magic, payload byte count, CRC32 of the payload, payload.
// Truncation and bit rot are detected up front instead of crashing
// mid-parse or silently loading garbage weights. The unframed v1 format
// (magic 0xAC0BE001 + raw payload) is no longer read: it fails as bad
// magic.
constexpr std::uint32_t kMagicV2 = 0xAC0BE101;

// Hostile-input ceilings: reject absurd header values before they turn
// into multi-gigabyte allocations (mirrors the string-length guard in
// ensemble_io).
constexpr std::uint32_t kMaxDim = 1u << 20;
constexpr std::uint32_t kMaxDepth = 64;
constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

void WriteU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t ReadU32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("LoadAutoencoder: truncated stream");
  return v;
}

void WriteTensor(std::ostream& out, const Tensor& t) {
  WriteU32(out, static_cast<std::uint32_t>(t.rows()));
  WriteU32(out, static_cast<std::uint32_t>(t.cols()));
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
}

void ReadTensorInto(std::istream& in, Tensor& t) {
  const std::uint32_t rows = ReadU32(in);
  const std::uint32_t cols = ReadU32(in);
  if (rows != t.rows() || cols != t.cols()) {
    throw std::runtime_error("LoadAutoencoder: tensor shape mismatch");
  }
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(float)));
  if (!in) throw std::runtime_error("LoadAutoencoder: truncated tensor");
}

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

void WritePayload(const AutoencoderSpec& spec, Sequential& net,
                  std::ostream& out) {
  WriteU32(out, static_cast<std::uint32_t>(spec.input_dim));
  WriteU32(out, static_cast<std::uint32_t>(spec.encoder_dims.size()));
  for (std::size_t d : spec.encoder_dims) {
    WriteU32(out, static_cast<std::uint32_t>(d));
  }
  WriteU32(out, spec.batch_norm ? 1 : 0);
  WriteU32(out, spec.sigmoid_output ? 1 : 0);
  ForEachStateTensor(net, [&](Tensor& t) { WriteTensor(out, t); });
}

Sequential ReadPayload(std::istream& in, AutoencoderSpec& spec_out) {
  AutoencoderSpec spec;
  const std::uint32_t input_dim = ReadU32(in);
  if (input_dim == 0 || input_dim > kMaxDim) {
    throw std::runtime_error("LoadAutoencoder: implausible input dim");
  }
  spec.input_dim = input_dim;
  const std::uint32_t depth = ReadU32(in);
  if (depth == 0 || depth > kMaxDepth) {
    throw std::runtime_error("LoadAutoencoder: implausible encoder depth");
  }
  spec.encoder_dims.clear();
  for (std::uint32_t i = 0; i < depth; ++i) {
    const std::uint32_t dim = ReadU32(in);
    if (dim == 0 || dim > kMaxDim) {
      throw std::runtime_error("LoadAutoencoder: implausible layer dim");
    }
    spec.encoder_dims.push_back(dim);
  }
  spec.batch_norm = ReadU32(in) != 0;
  spec.sigmoid_output = ReadU32(in) != 0;

  Sequential net = BuildAutoencoder(spec);
  ForEachStateTensor(net, [&](Tensor& t) { ReadTensorInto(in, t); });
  spec_out = spec;
  return net;
}

}  // namespace

void SaveAutoencoder(const AutoencoderSpec& spec, Sequential& net,
                     std::ostream& out) {
  std::ostringstream payload_stream;
  WritePayload(spec, net, payload_stream);
  const std::string payload = payload_stream.str();
  WriteU32(out, kMagicV2);
  WriteU32(out, static_cast<std::uint32_t>(payload.size()));
  WriteU32(out, Crc32(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

Sequential LoadAutoencoder(std::istream& in, AutoencoderSpec& spec_out) {
  if (ReadU32(in) != kMagicV2) {
    throw std::runtime_error("LoadAutoencoder: bad magic");
  }
  const std::uint32_t size = ReadU32(in);
  if (size > kMaxPayloadBytes) {
    throw std::runtime_error("LoadAutoencoder: implausible payload size");
  }
  const std::uint32_t expected_crc = ReadU32(in);
  std::string payload(size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("LoadAutoencoder: truncated payload");
  if (Crc32(payload) != expected_crc) {
    throw std::runtime_error(
        "LoadAutoencoder: checksum mismatch (corrupt artifact)");
  }
  std::istringstream payload_stream(payload);
  return ReadPayload(payload_stream, spec_out);
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
