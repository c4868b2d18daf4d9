#include "features/measurement_cube.h"

#include <algorithm>
#include <stdexcept>

#include "common/telemetry.h"

namespace acobe {

MeasurementCube::MeasurementCube(Date start, int days, int features,
                                 int frames)
    : start_(start), days_(days), features_(features), frames_(frames) {
  if (days <= 0 || features <= 0 || frames <= 0) {
    throw std::invalid_argument("MeasurementCube: non-positive dimension");
  }
}

int MeasurementCube::RegisterUser(UserId user) {
  auto [it, inserted] =
      user_index_.try_emplace(user, static_cast<int>(user_ids_.size()));
  if (inserted) {
    user_ids_.push_back(user);
    EnsureCapacity(static_cast<int>(user_ids_.size()));
    ACOBE_COUNT("features.users_registered", 1);
    ACOBE_GAUGE_MAX("features.users", user_ids_.size());
  }
  return it->second;
}

int MeasurementCube::UserIndex(UserId user) const {
  auto it = user_index_.find(user);
  return it == user_index_.end() ? -1 : it->second;
}

int MeasurementCube::DayIndex(const Date& d) const {
  const std::int64_t idx = DaysBetween(start_, d);
  if (idx < 0 || idx >= days_) return -1;
  return static_cast<int>(idx);
}

std::size_t MeasurementCube::Offset(int user_idx, int feature, int day,
                                    int frame) const {
  if (user_idx < 0 || user_idx >= users() || feature < 0 ||
      feature >= features_ || day < 0 || day >= days_ || frame < 0 ||
      frame >= frames_) {
    throw std::out_of_range("MeasurementCube: index out of range");
  }
  return ((static_cast<std::size_t>(user_idx) * features_ + feature) * days_ +
          day) *
             frames_ +
         frame;
}

float& MeasurementCube::At(int user_idx, int feature, int day, int frame) {
  return data_[Offset(user_idx, feature, day, frame)];
}

float MeasurementCube::At(int user_idx, int feature, int day,
                          int frame) const {
  return data_[Offset(user_idx, feature, day, frame)];
}

void MeasurementCube::Accumulate(UserId user, int feature, const Date& date,
                                 int frame, float amount) {
  const int day = DayIndex(date);
  if (day < 0) return;
  // Validate the frame before any mutation: registering the user (and
  // growing the cube) first would leave a phantom user behind when the
  // out_of_range below fires, so a single malformed row could not be
  // rejected cleanly under the permissive-ingest error budget.
  if (feature < 0 || feature >= features_ || frame < 0 || frame >= frames_) {
    throw std::out_of_range("MeasurementCube::Accumulate: index out of range");
  }
  const int idx = RegisterUser(user);
  At(idx, feature, day, frame) += amount;
}

std::span<const float> MeasurementCube::Series(int user_idx,
                                               int feature) const {
  const std::size_t begin = Offset(user_idx, feature, 0, 0);
  return {data_.data() + begin,
          static_cast<std::size_t>(days_) * frames_};
}

void MeasurementCube::EnsureCapacity(int user_count) {
  data_.resize(static_cast<std::size_t>(user_count) * features_ * days_ *
               frames_);
}

std::vector<float> TrimmedGroupMeanSeries(const MeasurementCube& cube,
                                          std::span<const int> member_indices,
                                          double trim_fraction) {
  if (trim_fraction < 0.0 || trim_fraction >= 0.5) {
    throw std::invalid_argument(
        "TrimmedGroupMeanSeries: trim_fraction must be in [0, 0.5)");
  }
  const std::size_t n = member_indices.size();
  const std::size_t trim =
      static_cast<std::size_t>(trim_fraction * static_cast<double>(n));
  if (trim == 0) return GroupMeanSeries(cube, member_indices);

  const std::size_t per_feature =
      static_cast<std::size_t>(cube.days()) * cube.frames();
  std::vector<float> out(static_cast<std::size_t>(cube.features()) *
                         per_feature);
  std::vector<float> values(n);
  for (int f = 0; f < cube.features(); ++f) {
    float* dst = out.data() + static_cast<std::size_t>(f) * per_feature;
    for (std::size_t i = 0; i < per_feature; ++i) {
      for (std::size_t m = 0; m < n; ++m) {
        values[m] = cube.Series(member_indices[m], f)[i];
      }
      std::sort(values.begin(), values.end());
      double sum = 0.0;
      for (std::size_t m = trim; m < n - trim; ++m) sum += values[m];
      dst[i] = static_cast<float>(sum / static_cast<double>(n - 2 * trim));
    }
  }
  return out;
}

std::vector<float> GroupMeanSeries(const MeasurementCube& cube,
                                   std::span<const int> member_indices) {
  const std::size_t per_feature =
      static_cast<std::size_t>(cube.days()) * cube.frames();
  std::vector<float> out(static_cast<std::size_t>(cube.features()) *
                         per_feature);
  if (member_indices.empty()) return out;
  for (int f = 0; f < cube.features(); ++f) {
    float* dst = out.data() + static_cast<std::size_t>(f) * per_feature;
    for (int idx : member_indices) {
      const std::span<const float> series = cube.Series(idx, f);
      for (std::size_t i = 0; i < per_feature; ++i) dst[i] += series[i];
    }
    const float inv = 1.0f / static_cast<float>(member_indices.size());
    for (std::size_t i = 0; i < per_feature; ++i) dst[i] *= inv;
  }
  return out;
}

}  // namespace acobe
