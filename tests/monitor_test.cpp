// Persistent alerts from the monitor: an alert opening and closing, no
// alert without persistence, and the edge cases: alert re-opening after
// a cooloff, a firing streak exactly at persistence_days, and a user
// still firing on the final grid day (the end-of-range flush).

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/monitor.h"

using namespace acobe;

namespace {

/// Single-aspect grid where `hot` tops the daily list exactly on
/// `hot_days` (user 0 tops it on every other day).
ScoreGrid GridWithHotDays(int users, int days, int hot,
                          const std::vector<int>& hot_days) {
  ScoreGrid grid({"a"}, users, 0, days);
  for (int d = 0; d < days; ++d) {
    grid.At(0, 0, d) = 0.30f;
    for (int u = 1; u < users; ++u) grid.At(0, u, d) = 0.10f - 0.01f * u;
  }
  for (int d : hot_days) grid.At(0, hot, d) = 1.0f;
  return grid;
}

std::vector<Alert> AlertsFor(const std::vector<Alert>& alerts, int user) {
  std::vector<Alert> mine;
  for (const Alert& a : alerts) {
    if (a.user_idx == user) mine.push_back(a);
  }
  return mine;
}

TEST(MonitorTest, AlertReopensAfterCooloff) {
  // User 1 fires on days 2..5, goes quiet for 6 days (past the 2-day
  // cooloff, closing the alert), then fires again on days 12..15: two
  // separate alerts, not one merged span.
  const ScoreGrid grid =
      GridWithHotDays(3, 20, 1, {2, 3, 4, 5, 12, 13, 14, 15});
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 2;
  cfg.cooloff_days = 2;
  const auto mine = AlertsFor(FindPersistentAlerts(grid, cfg), 1);
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0].first_day, 2);
  EXPECT_EQ(mine[0].last_day, 5);
  EXPECT_EQ(mine[0].firing_days, 4);
  EXPECT_EQ(mine[1].first_day, 12);
  EXPECT_EQ(mine[1].last_day, 15);
  EXPECT_EQ(mine[1].firing_days, 4);
}

TEST(MonitorTest, StreakExactlyAtPersistenceOpensAlert) {
  // persistence_days = 3: a 3-day streak opens (backdated to the
  // streak's first day), a 2-day streak does not.
  const ScoreGrid grid = GridWithHotDays(3, 16, 1, {4, 5, 6, 10, 11});
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 3;
  cfg.cooloff_days = 2;
  const auto mine = AlertsFor(FindPersistentAlerts(grid, cfg), 1);
  ASSERT_EQ(mine.size(), 1u);
  EXPECT_EQ(mine[0].first_day, 4);
  EXPECT_EQ(mine[0].last_day, 6);
  EXPECT_EQ(mine[0].firing_days, 3);
}

TEST(MonitorTest, AlertOpenOnFinalDayIsStillEmitted) {
  // User 1's streak runs through the last grid day, so the alert never
  // sees a cooloff; the end-of-range flush must still emit it.
  const ScoreGrid grid = GridWithHotDays(3, 10, 1, {7, 8, 9});
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 2;
  cfg.cooloff_days = 2;
  const auto mine = AlertsFor(FindPersistentAlerts(grid, cfg), 1);
  ASSERT_EQ(mine.size(), 1u);
  EXPECT_EQ(mine[0].first_day, 7);
  EXPECT_EQ(mine[0].last_day, 9);  // == day_end() - 1
  EXPECT_EQ(mine[0].firing_days, 3);
}

TEST(MonitorTest, QuietGapShorterThanCooloffKeepsAlertOpen) {
  // A 1-day dip inside a 2-day cooloff must not split the alert; the
  // dip day is not counted as a firing day.
  const ScoreGrid grid = GridWithHotDays(3, 14, 1, {3, 4, 5, 7, 8});
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 2;
  cfg.cooloff_days = 2;
  const auto mine = AlertsFor(FindPersistentAlerts(grid, cfg), 1);
  ASSERT_EQ(mine.size(), 1u);
  EXPECT_EQ(mine[0].first_day, 3);
  EXPECT_EQ(mine[0].last_day, 8);
  EXPECT_EQ(mine[0].firing_days, 5);
}

TEST(MonitorTest, CooloffSpanningSaveLoadClosesIdentically) {
  // Regression for the resident service's restart path: an alert whose
  // cooloff straddles a Save/Load boundary must close on the same day
  // with the same span as an uninterrupted tracker. User 0 fires days
  // 2..4; the process "restarts" after day 5 (one quiet day into a
  // 2-day cooloff); day 6 is quiet and completes the cooloff.
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 2;
  cfg.cooloff_days = 2;
  auto fired_on = [](int day) {
    return std::vector<bool>{day >= 2 && day <= 4, false};
  };

  MonitorState uninterrupted(cfg);
  std::vector<Alert> expect;
  for (int d = 0; d <= 6; ++d) {
    uninterrupted.AdvanceDay(d, fired_on(d), nullptr, &expect);
  }

  MonitorState before(cfg);
  std::vector<Alert> got;
  for (int d = 0; d <= 5; ++d) before.AdvanceDay(d, fired_on(d), nullptr, &got);
  EXPECT_TRUE(got.empty());  // still cooling off at the save point
  ASSERT_EQ(before.OpenAlerts().size(), 1u);

  std::stringstream snapshot;
  before.Save(snapshot);
  MonitorState after = MonitorState::Load(snapshot);
  EXPECT_EQ(after.last_day(), 5);
  ASSERT_EQ(after.OpenAlerts().size(), 1u);
  after.AdvanceDay(6, fired_on(6), nullptr, &got);

  ASSERT_EQ(expect.size(), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].user_idx, expect[0].user_idx);
  EXPECT_EQ(got[0].first_day, expect[0].first_day);
  EXPECT_EQ(got[0].last_day, expect[0].last_day);
  EXPECT_EQ(got[0].firing_days, expect[0].firing_days);
  EXPECT_EQ(got[0].first_day, 2);
  EXPECT_EQ(got[0].last_day, 4);
  EXPECT_EQ(got[0].firing_days, 3);
  EXPECT_TRUE(after.OpenAlerts().empty());
}

TEST(MonitorTest, PersistentAlertOpensAndCloses) {
  // 3 users with deterministic baselines; user 1 tops the list only on
  // days 5..12 (user 0 tops it otherwise).
  ScoreGrid grid({"a"}, 3, 0, 20);
  for (int d = 0; d < 20; ++d) {
    grid.At(0, 0, d) = 0.30f;
    grid.At(0, 1, d) = (d >= 5 && d <= 12) ? 1.0f : 0.10f;
    grid.At(0, 2, d) = 0.20f;
  }
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 3;
  cfg.cooloff_days = 2;
  const auto alerts = FindPersistentAlerts(grid, cfg);
  const Alert* user1 = nullptr;
  for (const Alert& a : alerts) {
    if (a.user_idx == 1) user1 = &a;
  }
  ASSERT_NE(user1, nullptr);
  EXPECT_EQ(user1->first_day, 5);
  EXPECT_EQ(user1->last_day, 12);
  EXPECT_GE(user1->firing_days, 6);
}

TEST(MonitorTest, NoAlertWithoutPersistence) {
  ScoreGrid grid({"a"}, 2, 0, 10);
  for (int d = 0; d < 10; ++d) {
    grid.At(0, 0, d) = 0.1f;
    grid.At(0, 1, d) = 0.5f;  // user 1 leads every ordinary day
  }
  grid.At(0, 0, 4) = 1.0f;  // user 0: a single-day spike only
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 2;
  const auto alerts = FindPersistentAlerts(grid, cfg);
  for (const Alert& a : alerts) EXPECT_NE(a.user_idx, 0);
}

}  // namespace
