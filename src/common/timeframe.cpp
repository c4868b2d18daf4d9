#include "common/timeframe.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace acobe {

Timestamp MakeTimestamp(const Date& date, int hour, int minute, int second) {
  return date.DayNumber() * kSecondsPerDay + hour * 3600 + minute * 60 + second;
}

Date DateOf(Timestamp ts) { return Date::FromDayNumber(DayOf(ts)); }

int HourOf(Timestamp ts) {
  std::int64_t sod = ts % kSecondsPerDay;
  if (sod < 0) sod += kSecondsPerDay;
  return static_cast<int>(sod / 3600);
}

TimeFramePartition TimeFramePartition::WorkOff() {
  return TimeFramePartition({6, 18});
}

TimeFramePartition TimeFramePartition::Hourly() {
  std::vector<int> cuts(24);
  for (int h = 0; h < 24; ++h) cuts[h] = h;
  return TimeFramePartition(std::move(cuts));
}

TimeFramePartition::TimeFramePartition(std::vector<int> cut_hours)
    : cuts_(std::move(cut_hours)) {
  if (cuts_.empty()) {
    throw std::invalid_argument("TimeFramePartition: need at least one cut");
  }
  if (!std::is_sorted(cuts_.begin(), cuts_.end()) ||
      std::adjacent_find(cuts_.begin(), cuts_.end()) != cuts_.end() ||
      cuts_.front() < 0 || cuts_.back() >= 24) {
    throw std::invalid_argument(
        "TimeFramePartition: cuts must be strictly ascending hours in [0,24)");
  }
}

int TimeFramePartition::FrameOfHour(int hour) const {
  if (hour < 0 || hour >= 24) {
    throw std::out_of_range("TimeFramePartition::FrameOfHour: hour out of range");
  }
  // Frame i covers [cuts[i], cuts[i+1]); hours before cuts[0] belong to the
  // wrapping last frame.
  if (hour < cuts_.front()) return frame_count() - 1;
  int frame = 0;
  for (int i = frame_count() - 1; i >= 0; --i) {
    if (hour >= cuts_[i]) {
      frame = i;
      break;
    }
  }
  return frame;
}

std::string TimeFramePartition::FrameLabel(int frame) const {
  if (frame < 0 || frame >= frame_count()) {
    throw std::out_of_range("TimeFramePartition::FrameLabel: bad frame");
  }
  const int begin = cuts_[frame];
  const int end = frame + 1 < frame_count() ? cuts_[frame + 1] : cuts_[0];
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%02d-%02d", begin, end);
  return buf;
}

}  // namespace acobe
