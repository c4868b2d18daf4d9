#pragma once

// Compound behavioral deviation matrix assembly (Section IV.A).
//
// For an anchor day d, the matrix encloses the individual user's
// deviations and (optionally) the group's deviations for the D days
// d-D+1..d across T time-frames, restricted to one aspect's features.
// Matrices are flattened and rescaled from [-Delta, Delta] to [0, 1]
// before entering the autoencoders (Section V, Implementation).

#include <span>
#include <vector>

#include "behavior/deviation.h"
#include "behavior/sample_builder.h"
#include "features/feature_catalog.h"

namespace acobe {

class CompoundMatrixBuilder : public SampleBuilder {
 public:
  /// `users` — per-user deviation series; `group_of_user` maps each user
  /// entity index to an index into `groups`; `groups` — one deviation
  /// series per group (entity 0 of each). Pass empty groups to build
  /// individual-only matrices (the No-Group ablation).
  CompoundMatrixBuilder(const DeviationSeries* users,
                        std::vector<DeviationSeries> groups,
                        std::vector<int> group_of_user);

  const DeviationConfig& config() const { return users_->config(); }

  /// Flattened [0,1] matrix for (user, aspect features, anchor day).
  /// Layout: [component: individual, group][feature][day][frame].
  std::vector<float> Build(int user_idx, std::span<const int> features,
                           int anchor_day) const;

  /// Number of values Build returns for `n_features`.
  std::size_t FlatSize(std::size_t n_features) const;

  /// Anchor days usable for matrices: [FirstAnchorDay, days).
  int FirstAnchorDay() const { return users_->config().FirstAnchorDay(); }
  int days() const { return users_->days(); }
  bool has_groups() const { return !groups_.empty(); }

  // SampleBuilder interface.
  std::vector<float> BuildSample(int user_idx, std::span<const int> features,
                                 int day) const override {
    return Build(user_idx, features, day);
  }
  std::size_t SampleSize(std::size_t n_features) const override {
    return FlatSize(n_features);
  }
  int FirstValidDay() const override { return FirstAnchorDay(); }
  int EndDay() const override { return days(); }
  /// Inverts Build's [component][feature][day][frame] flattening.
  SampleCellRef DescribeCell(std::size_t flat_index,
                             std::size_t n_features) const override;
  int SampleWindowDays() const override {
    return users_->config().EffectiveMatrixDays();
  }

 private:
  const DeviationSeries* users_;
  std::vector<DeviationSeries> groups_;
  std::vector<int> group_of_user_;
};

}  // namespace acobe
