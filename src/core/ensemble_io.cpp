#include "core/ensemble_io.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/faults.h"
#include "nn/serialize.h"

namespace acobe {
namespace {

// v2 frame: magic, payload byte count, CRC32 over the whole payload, so
// a truncated or bit-rotted ensemble file fails fast with "corrupt
// artifact" instead of deserializing garbage weights. The unframed v1
// format (magic 0xAC0BE002 + raw payload) is no longer read: it fails
// as bad magic.
constexpr std::uint32_t kMagicV2 = 0xAC0BE003;

// Hostile-input ceilings, checked before any allocation sized from the
// header (same spirit as the string-length guard below).
constexpr std::uint32_t kMaxAspects = 4096;
constexpr std::uint32_t kMaxFeaturesPerAspect = 1u << 20;
constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

void WriteU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t ReadU32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("LoadEnsemble: truncated stream");
  return v;
}

void WriteString(std::ostream& out, const std::string& s) {
  WriteU32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string ReadString(std::istream& in) {
  const std::uint32_t n = ReadU32(in);
  if (n > (1u << 20)) throw std::runtime_error("LoadEnsemble: bad string");
  std::string s(n, '\0');
  in.read(s.data(), n);
  if (!in) throw std::runtime_error("LoadEnsemble: truncated string");
  return s;
}

void WritePayload(AspectEnsemble& ensemble, std::ostream& out) {
  WriteU32(out, static_cast<std::uint32_t>(ensemble.aspect_count()));
  for (int a = 0; a < ensemble.aspect_count(); ++a) {
    const AspectGroup& aspect = ensemble.aspect(a);
    WriteString(out, aspect.name);
    WriteU32(out, static_cast<std::uint32_t>(aspect.feature_indices.size()));
    for (int f : aspect.feature_indices) {
      WriteU32(out, static_cast<std::uint32_t>(f));
    }
    nn::SaveAutoencoder(ensemble.model_spec(a), ensemble.model(a), out);
  }
}

AspectEnsemble ReadPayload(std::istream& in) {
  const std::uint32_t aspects = ReadU32(in);
  if (aspects == 0 || aspects > kMaxAspects) {
    throw std::runtime_error("LoadEnsemble: implausible aspect count");
  }
  std::vector<AspectGroup> groups;
  std::vector<nn::Sequential> models;
  std::vector<nn::AutoencoderSpec> specs;
  for (std::uint32_t a = 0; a < aspects; ++a) {
    AspectGroup group;
    group.name = ReadString(in);
    const std::uint32_t n = ReadU32(in);
    if (n > kMaxFeaturesPerAspect) {
      throw std::runtime_error("LoadEnsemble: implausible feature count");
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t f = ReadU32(in);
      if (f > kMaxFeaturesPerAspect) {
        throw std::runtime_error("LoadEnsemble: implausible feature index");
      }
      group.feature_indices.push_back(static_cast<int>(f));
    }
    groups.push_back(std::move(group));
    nn::AutoencoderSpec spec;
    models.push_back(nn::LoadAutoencoder(in, spec));
    specs.push_back(spec);
  }
  EnsembleConfig config;
  if (!specs.empty()) config.encoder_dims = specs.front().encoder_dims;
  return AspectEnsemble::FromTrainedModels(std::move(groups),
                                           std::move(config),
                                           std::move(models), std::move(specs));
}

}  // namespace

void SaveEnsemble(AspectEnsemble& ensemble, std::ostream& out) {
  if (!ensemble.trained()) {
    throw std::logic_error("SaveEnsemble: ensemble is not trained");
  }
  if (ensemble.degraded()) {
    // The on-disk format has no notion of a failed aspect; persisting a
    // partial ensemble would silently load as a "complete" one later.
    throw std::logic_error(
        "SaveEnsemble: ensemble is degraded (aspects failed training); "
        "refusing to persist a partial model");
  }
  std::ostringstream payload_stream;
  WritePayload(ensemble, payload_stream);
  const std::string payload = payload_stream.str();
  WriteU32(out, kMagicV2);
  WriteU32(out, static_cast<std::uint32_t>(payload.size()));
  WriteU32(out, Crc32(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

AspectEnsemble LoadEnsemble(std::istream& in) {
  if (ReadU32(in) != kMagicV2) {
    throw std::runtime_error("LoadEnsemble: bad magic");
  }
  const std::uint32_t size = ReadU32(in);
  if (size > kMaxPayloadBytes) {
    throw std::runtime_error("LoadEnsemble: implausible payload size");
  }
  const std::uint32_t expected_crc = ReadU32(in);
  std::string payload(size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("LoadEnsemble: truncated payload");
  if (Crc32(payload) != expected_crc) {
    throw std::runtime_error(
        "LoadEnsemble: checksum mismatch (corrupt artifact)");
  }
  std::istringstream payload_stream(payload);
  return ReadPayload(payload_stream);
}

void SaveEnsembleFile(AspectEnsemble& ensemble, const std::string& path) {
  WriteFileAtomic(path,
                  [&](std::ostream& out) { SaveEnsemble(ensemble, out); });
}

AspectEnsemble LoadEnsembleFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("LoadEnsembleFile: cannot open " + path);
  return LoadEnsemble(in);
}

}  // namespace acobe
