#pragma once

// Persistence for a trained AspectEnsemble: aspect metadata plus every
// autoencoder's weights/running statistics, in one stream. Lets an
// operator train once and score new days without retraining (see
// examples/streaming_watch.cpp). A file is one "ACEN" record
// (common/record.h) whose models use the autoencoder field encoding.

#include <iosfwd>
#include <string>

#include "core/ensemble.h"

namespace acobe {

void SaveEnsemble(AspectEnsemble& ensemble, std::ostream& out);

/// Loads an ensemble previously written by SaveEnsemble. The returned
/// ensemble is ready to Score (it is marked trained); its EnsembleConfig
/// carries the persisted encoder dims. Throws RecordError on format
/// errors.
AspectEnsemble LoadEnsemble(std::istream& in);

void SaveEnsembleFile(AspectEnsemble& ensemble, const std::string& path);
AspectEnsemble LoadEnsembleFile(const std::string& path);

}  // namespace acobe
