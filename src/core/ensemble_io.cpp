#include "core/ensemble_io.h"

#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "common/faults.h"
#include "common/record.h"
#include "nn/serialize.h"

namespace acobe {

constexpr char kTag[] = "ACEN";
constexpr std::uint32_t kVersion = 3;

// Hostile-input ceilings, checked before any allocation they size.
constexpr std::uint32_t kMaxAspects = 4096;
constexpr std::uint32_t kMaxFeatures = 1u << 20;

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
  RecordWriter w;
  w.Count(static_cast<std::size_t>(ensemble.aspect_count()));
  for (int a = 0; a < ensemble.aspect_count(); ++a) {
    const AspectGroup& aspect = ensemble.aspect(a);
    w.Str(aspect.name);
    w.Count(aspect.feature_indices.size());
    for (int f : aspect.feature_indices) w.U32(static_cast<std::uint32_t>(f));
    nn::EncodeAutoencoder(ensemble.model_spec(a), ensemble.model(a), w);
  }
  WriteRecord(out, kTag, kVersion, w.payload());
}

AspectEnsemble LoadEnsemble(std::istream& in) {
  const std::string payload = ReadRecord(in, kTag, kVersion, "LoadEnsemble");
  RecordReader r(payload, "LoadEnsemble");
  // An aspect takes at least its name length and feature count.
  const std::size_t aspects = r.Count(2 * sizeof(std::uint32_t), "aspect");
  if (aspects == 0 || aspects > kMaxAspects) r.Fail("implausible aspect count");
  std::vector<AspectGroup> groups(aspects);
  std::vector<nn::Sequential> models;
  std::vector<nn::AutoencoderSpec> specs(aspects);
  for (std::size_t a = 0; a < aspects; ++a) {
    AspectGroup& group = groups[a];
    group.name = r.Str();
    const std::size_t n = r.Count(sizeof(std::uint32_t), "feature");
    if (n == 0 || n > kMaxFeatures) r.Fail("implausible feature count");
    group.feature_indices.resize(n);
    for (int& f : group.feature_indices) {
      const std::uint32_t index = r.U32();
      if (index > kMaxFeatures) r.Fail("implausible feature index");
      f = static_cast<int>(index);
    }
    models.push_back(nn::DecodeAutoencoder(r, specs[a]));
  }
  r.ExpectEnd();
  EnsembleConfig config;
  config.encoder_dims = specs.front().encoder_dims;
  return AspectEnsemble::FromTrainedModels(std::move(groups),
                                           std::move(config),
                                           std::move(models), std::move(specs));
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
