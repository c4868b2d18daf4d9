// Tests for eval/report (model summaries, the ledger quality event)
// and the precision@k metric it reports.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "eval/report.h"

namespace acobe {
namespace {

std::vector<bool> Flags(std::initializer_list<int> xs) {
  std::vector<bool> out;
  for (int x : xs) out.push_back(x != 0);
  return out;
}

TEST(ReportTest, Summary) {
  const auto ranked = std::vector<eval::RankedUser>{
      {1, 1.0, true}, {2, 2.0, false}, {3, 3.0, true}, {4, 4.0, false}};
  const auto summary = eval::Summarize("ACOBE", ranked);
  EXPECT_EQ(summary.name, "ACOBE");
  EXPECT_DOUBLE_EQ(summary.auc, 0.75);
  EXPECT_DOUBLE_EQ(summary.average_precision, (1.0 + 2.0 / 3.0) / 2.0);
  EXPECT_EQ(summary.fps_before_tp, (std::vector<int>{0, 1}));
}

TEST(ReportTest, PrecisionAtK) {
  const auto flags = Flags({1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(eval::PrecisionAtK(flags, 1), 1.0);
  EXPECT_DOUBLE_EQ(eval::PrecisionAtK(flags, 2), 0.5);
  EXPECT_DOUBLE_EQ(eval::PrecisionAtK(flags, 4), 0.5);
  // k beyond the list: the denominator stays k. Both insiders found,
  // but 6 of 10 budgeted investigation slots go unfilled.
  EXPECT_DOUBLE_EQ(eval::PrecisionAtK(flags, 10), 0.2);
  EXPECT_DOUBLE_EQ(eval::PrecisionAtK(flags, 0), 0.0);
  EXPECT_DOUBLE_EQ(eval::PrecisionAtK({}, 3), 0.0);
}

// Regression for the precision@k inflation bug: a department with fewer
// flagged users than the cutoff used to divide by the list length,
// reporting a 1-insider-in-1-entry list as precision@10 == 1.0.
TEST(ReportTest, PrecisionAtKBeyondListIsNotInflated) {
  const auto one_hit = Flags({1});
  EXPECT_DOUBLE_EQ(eval::PrecisionAtK(one_hit, 10), 0.1);
  const auto all_hits = Flags({1, 1, 1});
  EXPECT_DOUBLE_EQ(eval::PrecisionAtK(all_hits, 5), 0.6);
  // k within the list is unaffected.
  EXPECT_DOUBLE_EQ(eval::PrecisionAtK(all_hits, 3), 1.0);
}

TEST(ReportTest, QualityEventCarriesMetrics) {
  const std::vector<eval::RankedUser> ranked = {
      {1, 1.0, true}, {2, 2.0, false}, {3, 3.0, true}, {4, 4.0, false}};
  const std::vector<std::size_t> ks = {1, 2};
  const std::string line =
      eval::MakeQualityEvent("ACOBE", ranked, ks).Finish();
  const auto event = json::Value::Parse(line);
  EXPECT_EQ(event.GetString("event", ""), "quality");
  EXPECT_EQ(event.GetString("model", ""), "ACOBE");
  EXPECT_DOUBLE_EQ(event.GetNumber("list_size", 0), 4.0);
  EXPECT_DOUBLE_EQ(event.GetNumber("positives", 0), 2.0);
  EXPECT_DOUBLE_EQ(event.GetNumber("auc", 0), 0.75);
  const json::Value* p_at = event.Get("precision_at");
  ASSERT_NE(p_at, nullptr);
  EXPECT_DOUBLE_EQ(p_at->GetNumber("1", 0), 1.0);
  EXPECT_DOUBLE_EQ(p_at->GetNumber("2", 0), 0.5);
}

}  // namespace
}  // namespace acobe
