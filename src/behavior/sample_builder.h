#pragma once

// Common interface over behavioral representations: a SampleBuilder
// turns (user, feature subset, day) into the flattened [0,1] vector an
// autoencoder consumes. Implemented by CompoundMatrixBuilder (ACOBE's
// multi-day compound deviation matrix) and NormalizedDayBuilder (the
// single-day baselines).

#include <span>
#include <vector>

namespace acobe {

/// Where one flat sample element came from, in representation terms:
/// which matrix component (individual vs group half), which feature of
/// the aspect, which day of the enclosed window, which time-frame.
/// Attribution (core/attribution.h) maps top reconstruction-error cells
/// back through this to name what drove a detection.
struct SampleCellRef {
  int component = 0;   // 0 = individual, 1 = group half
  int feature_pos = 0; // index into the aspect's feature list
  int day_offset = 0;  // 0 = oldest enclosed day .. window-1 = anchor day
  int frame = 0;       // time-frame index
};

class SampleBuilder {
 public:
  virtual ~SampleBuilder() = default;

  virtual std::vector<float> BuildSample(int user_idx,
                                         std::span<const int> features,
                                         int day) const = 0;
  virtual std::size_t SampleSize(std::size_t n_features) const = 0;
  /// First day index for which BuildSample is defined.
  virtual int FirstValidDay() const = 0;
  /// One past the last valid day index.
  virtual int EndDay() const = 0;

  /// Decodes flat sample index `flat_index` (for a sample built over
  /// `n_features` features) into representation coordinates. The
  /// default treats the sample as one flat feature axis; builders with
  /// structured layouts override it.
  virtual SampleCellRef DescribeCell(std::size_t flat_index,
                                     std::size_t n_features) const {
    (void)n_features;
    SampleCellRef ref;
    ref.feature_pos = static_cast<int>(flat_index);
    return ref;
  }
  /// Days of behavior enclosed in one sample (1 for single-day
  /// representations); day_offset ranges over [0, SampleWindowDays()).
  virtual int SampleWindowDays() const { return 1; }
};

}  // namespace acobe
