#pragma once

// Binary save/load for trained autoencoders. The format stores the
// AutoencoderSpec followed by every parameter tensor and batch-norm
// running statistic, so a loaded model reproduces inference bit-exactly.
// A file is one "ACAE" record (common/record.h).

#include <iosfwd>
#include <string>

#include "common/record.h"
#include "nn/autoencoder.h"

namespace acobe::nn {

void SaveAutoencoder(const AutoencoderSpec& spec, Sequential& net,
                     std::ostream& out);

/// Loads a model previously written by SaveAutoencoder. Throws
/// RecordError on format errors.
Sequential LoadAutoencoder(std::istream& in, AutoencoderSpec& spec_out);

void SaveAutoencoderFile(const AutoencoderSpec& spec, Sequential& net,
                         const std::string& path);
Sequential LoadAutoencoderFile(const std::string& path,
                               AutoencoderSpec& spec_out);

}  // namespace acobe::nn
