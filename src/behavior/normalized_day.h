#pragma once

// Single-day normalized feature vectors, the representation used by the
// Liu et al. Baseline / Base-FF re-implementations and the paper's
// "1-Day" ablation (Section V.B.1): no history window — features are
// normalized occurrences of activities on individual days.

#include <span>
#include <vector>

#include "behavior/sample_builder.h"
#include "features/measurement_cube.h"

namespace acobe {

class NormalizedDayBuilder : public SampleBuilder {
 public:
  /// Computes per-(feature, frame) min-max normalization statistics from
  /// the day range [norm_begin, norm_end) across all users of `cube`.
  NormalizedDayBuilder(const MeasurementCube* cube, int norm_begin,
                       int norm_end);

  /// Flattened [0,1] vector for (user, features, day):
  /// layout [feature][frame]; values min-max scaled then clamped.
  std::vector<float> Build(int user_idx, std::span<const int> features,
                           int day) const;

  std::size_t FlatSize(std::size_t n_features) const {
    return n_features * static_cast<std::size_t>(cube_->frames());
  }

  // SampleBuilder interface.
  std::vector<float> BuildSample(int user_idx, std::span<const int> features,
                                 int day) const override {
    return Build(user_idx, features, day);
  }
  std::size_t SampleSize(std::size_t n_features) const override {
    return FlatSize(n_features);
  }
  int FeatureCount() const override { return cube_->features(); }
  int FirstValidDay() const override { return 0; }
  int EndDay() const override { return cube_->days(); }
  /// Inverts Build's [feature][frame] flattening (single component,
  /// single day).
  SampleCellRef DescribeCell(std::size_t flat_index,
                             std::size_t) const override {
    const std::size_t frames = static_cast<std::size_t>(cube_->frames());
    SampleCellRef ref;
    ref.feature_pos = static_cast<int>(flat_index / frames);
    ref.frame = static_cast<int>(flat_index % frames);
    return ref;
  }

 private:
  const MeasurementCube* cube_;
  std::vector<float> min_;  // [feature][frame]
  std::vector<float> max_;
};

}  // namespace acobe
