#pragma once

// Time-frame partitioning of a day.
//
// ACOBE measures features per (feature, time-frame, day). The paper's
// default splits each day into two frames — working hours 06:00-18:00
// and off hours — while the Liu et al. baseline uses 24 hourly frames.
// `TimeFramePartition` abstracts both.

#include <cstdint>
#include <string>
#include <vector>

#include "common/date.h"

namespace acobe {

/// Seconds since the Unix epoch (UTC; the simulation has a single zone).
using Timestamp = std::int64_t;

constexpr std::int64_t kSecondsPerDay = 86400;

/// Builds a timestamp from a date and a second-of-day offset.
Timestamp MakeTimestamp(const Date& date, int hour, int minute = 0,
                        int second = 0);

/// The day number (days since 1970-01-01) a timestamp falls on, floor-
/// divided so pre-epoch timestamps land on the right day.
constexpr std::int64_t DayOf(Timestamp ts) {
  return ts / kSecondsPerDay - (ts % kSecondsPerDay < 0 ? 1 : 0);
}

/// The date a timestamp falls on.
Date DateOf(Timestamp ts);

/// Hour-of-day in [0,24).
int HourOf(Timestamp ts);

/// Partition of the 24-hour day into contiguous hour-aligned frames.
///
/// A partition is defined by its frame boundaries in hours. The default
/// ACOBE partition is {6, 18}: frame 0 = [06:00,18:00) "work", frame 1 =
/// [18:00,06:00) "off" (wrapping across midnight). An hourly partition
/// has 24 single-hour frames.
class TimeFramePartition {
 public:
  /// ACOBE default: working hours [6,18) and off hours.
  static TimeFramePartition WorkOff();

  /// 24 hourly frames (Liu et al. baseline).
  static TimeFramePartition Hourly();

  /// Custom partition from ascending cut hours in [0,24). Frame i covers
  /// [cuts[i], cuts[i+1]) with the last frame wrapping to cuts[0].
  /// Requires at least one cut.
  explicit TimeFramePartition(std::vector<int> cut_hours);

  int frame_count() const { return static_cast<int>(cuts_.size()); }

  /// Index of the frame containing hour-of-day `hour` in [0,24).
  int FrameOfHour(int hour) const;

  /// Index of the frame containing `ts`.
  int FrameOf(Timestamp ts) const { return FrameOfHour(HourOf(ts)); }

  /// Human-readable label, e.g. "06-18" or "18-06".
  std::string FrameLabel(int frame) const;

  friend bool operator==(const TimeFramePartition&,
                         const TimeFramePartition&) = default;

 private:
  std::vector<int> cuts_;
};

}  // namespace acobe
