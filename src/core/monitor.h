#pragma once

// Operational monitoring layer on top of the score grid: daily
// investigation lists (Section VI.C's "periodic investigation") plus
// persistent-alert extraction — a user who stays in the top of the
// daily list for several consecutive days becomes one deduplicated
// alert with a span, rather than one alert per day.

#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "core/critic.h"
#include "core/score_grid.h"

namespace acobe {

struct MonitorConfig {
  /// Critic votes for the daily lists.
  int n_votes = 2;
  /// A user "fires" on a day when listed within the first `top_positions`.
  int top_positions = 3;
  /// Consecutive firing days required before an alert opens.
  int persistence_days = 2;
  /// An open alert closes after this many consecutive quiet days.
  int cooloff_days = 2;
};

struct Alert {
  int user_idx = -1;
  int first_day = 0;   // grid day index when the alert opened
  int last_day = 0;    // last firing day
  int firing_days = 0; // total days in the top positions
  // Provenance: where in (aspect, day) space the alert's span scored
  // highest — the first thing an analyst opens.
  int peak_day = 0;
  int peak_aspect = 0;
  std::string peak_aspect_name;
  float peak_score = 0.0f;
};

/// Per-user peak observation for one day, fed alongside the firing set
/// when the monitor is driven incrementally (the resident service):
/// the user's best score that day and the aspect it came from. The
/// batch path overwrites them by recomputing peaks from the grid post
/// hoc.
struct DayPeak {
  float score = -1.0f;
  std::string aspect;
};

/// The persistent-alert tracker, factored out of FindPersistentAlerts
/// so its streak/cooloff state can outlive one grid: the resident
/// service feeds it one scored day at a time across detection cycles
/// (and process restarts, via Save/Load), and an alert spanning a
/// restart still comes out as one deduplicated alert.
///
/// Days are caller-defined indices and must strictly increase across
/// AdvanceDay calls; a gap is treated as the missing days having fired
/// nobody (quiet days), which keeps the outcome a pure function of the
/// observations regardless of how they were batched.
class MonitorState {
 public:
  explicit MonitorState(MonitorConfig config = {});

  const MonitorConfig& config() const { return config_; }

  /// Feeds one day: `fired[u]` is true when user u was within the top
  /// positions of the daily list. `peaks` (optional, may be null or
  /// empty) carries per-user peak provenance for the day. Alerts whose
  /// cooloff completed are appended to `closed` in user-index order.
  void AdvanceDay(int day, const std::vector<bool>& fired,
                  const std::vector<DayPeak>* peaks,
                  std::vector<Alert>* closed);

  /// Feeds every day d of `grid` as day `d + day_offset`: the users
  /// within the top `config().top_positions` of the day's critic list
  /// (`config().n_votes` votes) fire, and each user's peak is their best
  /// aspect score that day.
  void AdvanceGrid(const ScoreGrid& grid, int day_offset,
                   std::vector<Alert>* closed);

  /// Snapshot of the alerts still open (firing or cooling off), in
  /// user-index order — the end-of-range flush of the batch path.
  std::vector<Alert> OpenAlerts() const;

  /// The last day fed, or kNoDay before the first AdvanceDay.
  static constexpr int kNoDay = std::numeric_limits<int>::min();
  int last_day() const { return last_day_; }

  /// One "ACMS" record (common/record.h). Save writes the full
  /// tracker; Load throws RecordError on a short, corrupt or
  /// version-mismatched stream.
  void Save(std::ostream& out) const;
  static MonitorState Load(std::istream& in);

 private:
  struct PeakTrack {
    float score = -1.0f;
    int day = 0;
    std::string aspect;
  };
  struct Tracking {
    int streak = 0;  // consecutive firing days (pre-alert)
    int quiet = 0;   // consecutive quiet days (while alert open)
    bool open = false;
    Alert alert;
    PeakTrack streak_peak;   // best over the current pre-alert streak
    PeakTrack pending_peak;  // best over quiet days inside an open alert
  };

  void Step(int day, const std::vector<bool>& fired,
            const std::vector<DayPeak>* peaks, std::vector<Alert>* closed);

  MonitorConfig config_;
  std::vector<Tracking> tracking_;
  int last_day_ = kNoDay;
};

/// Scans the grid's day range, builds the daily lists, and merges
/// consecutive firings into alerts. Alerts are ordered by first_day.
std::vector<Alert> FindPersistentAlerts(const ScoreGrid& grid,
                                        const MonitorConfig& config);

}  // namespace acobe
