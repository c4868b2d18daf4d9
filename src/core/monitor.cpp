#include "core/monitor.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/record.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace acobe {

constexpr char kMonitorTag[] = "ACMS";
constexpr std::uint32_t kMonitorVersion = 2;

MonitorState::MonitorState(MonitorConfig config) : config_(config) {}

void MonitorState::AdvanceDay(int day, const std::vector<bool>& fired,
                              const std::vector<DayPeak>* peaks,
                              std::vector<Alert>* closed) {
  if (last_day_ != kNoDay && day <= last_day_) {
    throw std::logic_error("MonitorState::AdvanceDay: days must increase");
  }
  // A day gap means those days were scored nowhere: nobody fired, so
  // streaks break and cooloffs advance exactly as if the days had been
  // fed explicitly. This keeps the tracker a pure function of the
  // observation sequence however it was chunked into cycles.
  if (last_day_ != kNoDay) {
    const std::vector<bool> nobody(tracking_.size(), false);
    for (int d = last_day_ + 1; d < day; ++d) {
      Step(d, nobody, nullptr, closed);
    }
  }
  Step(day, fired, peaks, closed);
  last_day_ = day;
}

void MonitorState::AdvanceGrid(const ScoreGrid& grid, int day_offset,
                               std::vector<Alert>* closed) {
  for (int d = grid.day_begin(); d < grid.day_end(); ++d) {
    const auto daily = RankUsersOnDay(grid, config_.n_votes, d);
    std::vector<bool> fired(grid.users(), false);
    const int top = std::min<int>(config_.top_positions,
                                  static_cast<int>(daily.size()));
    for (int i = 0; i < top; ++i) fired[daily[i].user_idx] = true;
    std::vector<DayPeak> peaks(grid.users());
    for (int u = 0; u < grid.users(); ++u) {
      for (int a = 0; a < grid.aspects(); ++a) {
        const float s = grid.At(a, u, d);
        if (s > peaks[u].score) peaks[u] = {s, grid.aspect_name(a)};
      }
    }
    AdvanceDay(d + day_offset, fired, &peaks, closed);
  }
}

void MonitorState::Step(int day, const std::vector<bool>& fired,
                        const std::vector<DayPeak>* peaks,
                        std::vector<Alert>* closed) {
  if (fired.size() > tracking_.size()) tracking_.resize(fired.size());
  for (std::size_t u = 0; u < tracking_.size(); ++u) {
    Tracking& t = tracking_[u];
    const bool hit = u < fired.size() && fired[u];
    const DayPeak* peak =
        peaks && u < peaks->size() && (*peaks)[u].score >= 0.0f
            ? &(*peaks)[u]
            : nullptr;
    if (hit) {
      t.quiet = 0;
      ++t.streak;
      if (peak && !t.open && peak->score > t.streak_peak.score) {
        t.streak_peak = {peak->score, day, peak->aspect};
      }
      if (!t.open && t.streak >= config_.persistence_days) {
        t.open = true;
        ACOBE_COUNT("monitor.alerts_opened", 1);
        t.alert = Alert{};
        t.alert.user_idx = static_cast<int>(u);
        t.alert.first_day = day - t.streak + 1;
        t.alert.last_day = day;
        t.alert.firing_days = t.streak;
        if (t.streak_peak.score >= 0.0f) {
          t.alert.peak_score = t.streak_peak.score;
          t.alert.peak_day = t.streak_peak.day;
          t.alert.peak_aspect = -1;  // name is authoritative when incremental
          t.alert.peak_aspect_name = t.streak_peak.aspect;
        }
      } else if (t.open) {
        t.alert.last_day = day;
        ++t.alert.firing_days;
        // Quiet days between this firing and the previous one are now
        // inside the alert's span; their best observation counts.
        if (t.pending_peak.score > t.alert.peak_score) {
          t.alert.peak_score = t.pending_peak.score;
          t.alert.peak_day = t.pending_peak.day;
          t.alert.peak_aspect = -1;
          t.alert.peak_aspect_name = t.pending_peak.aspect;
        }
        t.pending_peak = PeakTrack{};
        if (peak && peak->score > t.alert.peak_score) {
          t.alert.peak_score = peak->score;
          t.alert.peak_day = day;
          t.alert.peak_aspect = -1;
          t.alert.peak_aspect_name = peak->aspect;
        }
      }
    } else {
      t.streak = 0;
      t.streak_peak = PeakTrack{};
      if (t.open) {
        // A quiet day may still end up inside the span if the user
        // fires again before cooloff; buffer its peak until then.
        if (peak && peak->score > t.pending_peak.score) {
          t.pending_peak = {peak->score, day, peak->aspect};
        }
        if (++t.quiet >= config_.cooloff_days) {
          if (closed) closed->push_back(t.alert);
          t = Tracking{};
        }
      }
    }
  }
}

std::vector<Alert> MonitorState::OpenAlerts() const {
  std::vector<Alert> open;
  for (const Tracking& t : tracking_) {
    if (t.open) open.push_back(t.alert);
  }
  return open;
}

void MonitorState::Save(std::ostream& out) const {
  RecordWriter w;
  w.I32(config_.n_votes);
  w.I32(config_.top_positions);
  w.I32(config_.persistence_days);
  w.I32(config_.cooloff_days);
  w.I32(last_day_ == kNoDay ? -1 : 0);
  w.I32(last_day_ == kNoDay ? 0 : last_day_);
  w.Count(tracking_.size());
  for (const Tracking& t : tracking_) {
    w.I32(t.streak);
    w.I32(t.quiet);
    w.U32(t.open ? 1 : 0);
    w.I32(t.alert.user_idx);
    w.I32(t.alert.first_day);
    w.I32(t.alert.last_day);
    w.I32(t.alert.firing_days);
    w.I32(t.alert.peak_day);
    w.I32(t.alert.peak_aspect);
    w.F32(t.alert.peak_score);
    w.Str(t.alert.peak_aspect_name);
    for (const PeakTrack* p : {&t.streak_peak, &t.pending_peak}) {
      w.F32(p->score);
      w.I32(p->day);
      w.Str(p->aspect);
    }
  }
  WriteRecord(out, kMonitorTag, kMonitorVersion, w.payload());
}

MonitorState MonitorState::Load(std::istream& in) {
  const std::string payload =
      ReadRecord(in, kMonitorTag, kMonitorVersion, "MonitorState");
  RecordReader r(payload, "MonitorState");
  MonitorConfig config;
  config.n_votes = r.I32();
  config.top_positions = r.I32();
  config.persistence_days = r.I32();
  config.cooloff_days = r.I32();
  MonitorState state(config);
  const bool no_day = r.I32() == -1;
  const int last_day = r.I32();
  state.last_day_ = no_day ? kNoDay : last_day;
  // A user takes at least 14 fixed-width fields and 3 string lengths.
  state.tracking_.resize(r.Count(17 * 4, "user"));
  for (Tracking& t : state.tracking_) {
    t.streak = r.I32();
    t.quiet = r.I32();
    t.open = r.U32() != 0;
    t.alert.user_idx = r.I32();
    t.alert.first_day = r.I32();
    t.alert.last_day = r.I32();
    t.alert.firing_days = r.I32();
    t.alert.peak_day = r.I32();
    t.alert.peak_aspect = r.I32();
    t.alert.peak_score = r.F32();
    t.alert.peak_aspect_name = r.Str();
    for (PeakTrack* p : {&t.streak_peak, &t.pending_peak}) {
      p->score = r.F32();
      p->day = r.I32();
      p->aspect = r.Str();
    }
  }
  r.ExpectEnd();
  return state;
}

std::vector<Alert> FindPersistentAlerts(const ScoreGrid& grid,
                                        const MonitorConfig& config) {
  ACOBE_SPAN("monitor.find_alerts");
  MonitorState state(config);
  std::vector<Alert> alerts;

  state.AdvanceGrid(grid, 0, &alerts);
  for (const Alert& open : state.OpenAlerts()) alerts.push_back(open);
  std::sort(alerts.begin(), alerts.end(),
            [](const Alert& a, const Alert& b) {
              return a.first_day < b.first_day;
            });
  // Peak provenance over each alert's span; ties resolve to the
  // earliest day then lowest aspect index, deterministically.
  for (Alert& alert : alerts) {
    alert.peak_day = alert.first_day;
    alert.peak_score = -1.0f;
    for (int a = 0; a < grid.aspects(); ++a) {
      for (int d = alert.first_day; d <= alert.last_day; ++d) {
        const float s = grid.At(a, alert.user_idx, d);
        if (s > alert.peak_score) {
          alert.peak_score = s;
          alert.peak_day = d;
          alert.peak_aspect = a;
        }
      }
    }
    alert.peak_aspect_name = grid.aspect_name(alert.peak_aspect);
  }
  ACOBE_COUNT("monitor.daily_lists", grid.day_end() - grid.day_begin());
  ACOBE_COUNT("monitor.alerts_emitted", alerts.size());
  return alerts;
}

}  // namespace acobe
