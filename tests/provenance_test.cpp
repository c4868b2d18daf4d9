// Tests for the detection-provenance layer: sample-cell decoding
// (DescribeCell), per-detection attribution (core/attribution.h),
// score-drift telemetry (core/drift.h), the run ledger
// (common/ledger.h) and the JSON reader that round-trips it
// (common/json.h). The headline contracts pinned here:
//   - attribution names the planted cell in a golden scenario;
//   - enabling attribution/drift leaves scores bit-identical;
//   - a ledger written by LedgerEvent parses back field-for-field.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "behavior/compound_matrix.h"
#include "behavior/deviation.h"
#include "common/json.h"
#include "common/ledger.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/attribution.h"
#include "core/critic.h"
#include "core/detector.h"
#include "core/drift.h"
#include "core/ensemble.h"
#include "eval/report.h"

namespace acobe {
namespace {

const Date kStart(2010, 1, 4);

// --- DescribeCell -----------------------------------------------------------

// A compound builder over 2 features, 2 frames, 3 enclosed days, with a
// group half: DescribeCell must invert Build's
// [component][feature][day][frame] flattening for every flat index.
TEST(DescribeCellTest, InvertsCompoundLayout) {
  const int kFeatures = 2, kFrames = 2, kDays = 3;
  MeasurementCube cube(kStart, 30, kFeatures, kFrames);
  const int a = cube.RegisterUser(1);
  const int b = cube.RegisterUser(2);
  Rng rng(17);
  for (int u : {a, b}) {
    for (int f = 0; f < kFeatures; ++f) {
      for (int d = 0; d < 30; ++d) {
        for (int t = 0; t < kFrames; ++t) {
          cube.At(u, f, d, t) = static_cast<float>(rng.NextPoisson(4.0));
        }
      }
    }
  }
  DeviationConfig cfg;
  cfg.omega = 10;
  cfg.matrix_days = kDays;
  const auto dev = DeviationSeries::Compute(cube, cfg);
  const std::vector<int> member_indices = {a, b};
  const auto mean = GroupMeanSeries(cube, member_indices);
  std::vector<DeviationSeries> groups;
  groups.push_back(
      DeviationSeries::ComputeFromSeries(mean, kFeatures, 30, kFrames, cfg));
  const CompoundMatrixBuilder builder(&dev, std::move(groups), {0, 0});

  const std::size_t flat = builder.FlatSize(kFeatures);
  ASSERT_EQ(flat, static_cast<std::size_t>(2 * kFeatures * kDays * kFrames));
  EXPECT_EQ(builder.SampleWindowDays(), kDays);
  std::size_t i = 0;
  for (int component = 0; component < 2; ++component) {
    for (int f = 0; f < kFeatures; ++f) {
      for (int d = 0; d < kDays; ++d) {
        for (int t = 0; t < kFrames; ++t, ++i) {
          const SampleCellRef ref = builder.DescribeCell(i, kFeatures);
          EXPECT_EQ(ref.component, component) << "flat " << i;
          EXPECT_EQ(ref.feature_pos, f) << "flat " << i;
          EXPECT_EQ(ref.day_offset, d) << "flat " << i;
          EXPECT_EQ(ref.frame, t) << "flat " << i;
        }
      }
    }
  }
  EXPECT_EQ(i, flat);
}

TEST(DescribeCellTest, DefaultIsFlatFeatureAxis) {
  // The base-class default (used by NormalizedDayBuilder) treats the
  // sample as one flat feature axis over a single day.
  class Flat : public SampleBuilder {
   public:
    std::vector<float> BuildSample(int, std::span<const int>,
                                   int) const override {
      return {};
    }
    std::size_t SampleSize(std::size_t n) const override { return n; }
    int FirstValidDay() const override { return 0; }
    int EndDay() const override { return 1; }
  } flat;
  const SampleCellRef ref = flat.DescribeCell(3, 8);
  EXPECT_EQ(ref.component, 0);
  EXPECT_EQ(ref.feature_pos, 3);
  EXPECT_EQ(ref.day_offset, 0);
  EXPECT_EQ(ref.frame, 0);
  EXPECT_EQ(flat.SampleWindowDays(), 1);
}

// --- Attribution ------------------------------------------------------------

EnsembleConfig TinyEnsembleConfig() {
  EnsembleConfig cfg;
  cfg.encoder_dims = {8, 4};
  cfg.train.epochs = 8;
  cfg.train.batch_size = 16;
  cfg.seed = 7;
  cfg.threads = 1;
  return cfg;
}

// Golden scenario: every user repeats the same deterministic weekly
// ripple, so deviations hover near zero — except user 0, who goes wild
// on feature 1 for a few test-window days. Attribution of the
// top-ranked user must name that feature on those days.
TEST(AttributionTest, NamesThePlantedCell) {
  const int kUsers = 4, kDaysTotal = 40;
  MeasurementCube cube(kStart, kDaysTotal, 2, 1);
  for (int u = 0; u < kUsers; ++u) {
    cube.RegisterUser(100 + u);
    for (int d = 0; d < kDaysTotal; ++d) {
      cube.At(u, 0, d, 0) = static_cast<float>(5 + d % 3);
      cube.At(u, 1, d, 0) = static_cast<float>(2 + d % 2);
    }
  }
  for (int d = 32; d <= 36; ++d) cube.At(0, 1, d, 0) = 80.0f;  // the plant

  DeviationConfig dcfg;
  dcfg.omega = 10;
  dcfg.matrix_days = 5;
  dcfg.include_group = false;
  const auto dev = DeviationSeries::Compute(cube, dcfg);
  const CompoundMatrixBuilder builder(&dev, {}, {});

  // One aspect over both features.
  const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "x", 1.0}});
  AspectEnsemble ensemble(catalog.aspects(), TinyEnsembleConfig());
  ensemble.Train(builder, kUsers, builder.FirstValidDay(), 30);
  const ScoreGrid grid = ensemble.Score(builder, kUsers, 30, kDaysTotal);
  const auto list = RankUsers(grid, 1);
  ASSERT_FALSE(list.empty());
  ASSERT_EQ(list[0].user_idx, 0);  // the planted user ranks first

  AttributionConfig acfg;
  acfg.enabled = true;
  acfg.top_users = 1;
  acfg.top_cells = 3;
  const auto attr = AttributeDetections(ensemble, builder, grid, list, acfg);
  ASSERT_EQ(attr.size(), 1u);
  EXPECT_EQ(attr[0].user_idx, 0);
  EXPECT_DOUBLE_EQ(attr[0].priority, list[0].priority);
  ASSERT_EQ(attr[0].aspects.size(), 1u);
  const AspectAttribution& aa = attr[0].aspects[0];
  EXPECT_EQ(aa.aspect_name, "x");
  EXPECT_GT(aa.total_error, 0.0f);
  // Peak day is the grid argmax for (aspect 0, user 0).
  float best = -1.0f;
  int best_day = -1;
  for (int d = grid.day_begin(); d < grid.day_end(); ++d) {
    if (grid.At(0, 0, d) > best) best = grid.At(0, 0, d), best_day = d;
  }
  EXPECT_EQ(aa.peak_day, best_day);
  EXPECT_FLOAT_EQ(aa.peak_score, best);
  ASSERT_EQ(aa.cells.size(), 3u);
  // Descending error, shares normalized against the sample total.
  for (std::size_t i = 1; i < aa.cells.size(); ++i) {
    EXPECT_GE(aa.cells[i - 1].error, aa.cells[i].error);
  }
  const AttributedCell& top = aa.cells[0];
  EXPECT_EQ(top.feature_pos, 1);  // the planted feature
  EXPECT_GE(top.day, 32);         // inside the planted day range
  EXPECT_LE(top.day, 36);
  EXPECT_FALSE(top.group);  // no group half in this builder
  EXPECT_FALSE(top.has_group_input);
  EXPECT_GT(top.share, 0.0f);
  EXPECT_LE(top.share, 1.0f);
  // day = peak_day - window + 1 + day_offset.
  EXPECT_EQ(top.day, aa.peak_day - builder.SampleWindowDays() + 1 +
                         top.day_offset);
  EXPECT_EQ(aa.group_error_fraction, 0.0f);
}

TEST(AttributionTest, DisabledOrEmptyListYieldsNothing) {
  ScoreGrid grid({"x"}, 2, 0, 3);
  MeasurementCube cube(kStart, 20, 1, 1);
  cube.RegisterUser(1);
  DeviationConfig dcfg;
  dcfg.omega = 5;
  dcfg.matrix_days = 3;
  dcfg.include_group = false;
  const auto dev = DeviationSeries::Compute(cube, dcfg);
  const CompoundMatrixBuilder builder(&dev, {}, {});
  const FeatureCatalog catalog({{"f0", "x", 1.0}});
  AspectEnsemble ensemble(catalog.aspects(), TinyEnsembleConfig());
  AttributionConfig off;  // enabled = false
  EXPECT_TRUE(
      AttributeDetections(ensemble, builder, grid, {{0, 1.0}}, off).empty());
  AttributionConfig on;
  on.enabled = true;
  EXPECT_TRUE(AttributeDetections(ensemble, builder, grid, {}, on).empty());
}

// The core provenance contract: turning attribution + drift on changes
// neither the score grid nor the investigation list.
TEST(AttributionTest, EnablingProvenanceKeepsScoresBitIdentical) {
  MeasurementCube cube(kStart, 50, 2, 1);
  Rng rng(77);
  std::vector<UserId> members;
  for (int u = 0; u < 5; ++u) {
    members.push_back(200 + u);
    cube.RegisterUser(members.back());
    for (int d = 0; d < 50; ++d) {
      cube.At(u, 0, d, 0) = static_cast<float>(rng.NextPoisson(5.0));
      cube.At(u, 1, d, 0) = static_cast<float>(rng.NextPoisson(3.0));
    }
  }
  const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});

  DetectorSpec spec;
  spec.deviation.omega = 10;
  spec.deviation.matrix_days = 5;
  spec.ensemble = TinyEnsembleConfig();
  spec.ensemble.train.epochs = 4;
  spec.critic_votes = 2;
  spec.score_top_k_days = 3;

  const auto run = [&](bool provenance) {
    DetectorSpec s = spec;
    s.attribution.enabled = provenance;
    s.drift.enabled = provenance;
    return Detector(s).Run(cube, catalog, members, 0, 40, 40, 50);
  };
  const DetectionOutput off = run(false);
  const DetectionOutput on = run(true);

  EXPECT_EQ(off.grid.Digest(), on.grid.Digest());
  ASSERT_EQ(off.list.size(), on.list.size());
  for (std::size_t i = 0; i < off.list.size(); ++i) {
    EXPECT_EQ(off.list[i].user_idx, on.list[i].user_idx);
    EXPECT_DOUBLE_EQ(off.list[i].priority, on.list[i].priority);
  }
  // Off: no provenance products. On: both filled.
  EXPECT_TRUE(off.attributions.empty());
  EXPECT_TRUE(off.drift.empty());
  EXPECT_FALSE(on.attributions.empty());
  EXPECT_FALSE(on.drift.empty());
  // Train summaries are always recorded.
  ASSERT_EQ(off.train_summaries.size(), 2u);
  EXPECT_TRUE(off.train_summaries[0].ok);
  EXPECT_EQ(off.train_summaries[0].name, "x");
  EXPECT_GT(off.train_summaries[0].epochs, 0);
  EXPECT_EQ(off.train_summaries[0].epoch_losses.size(),
            static_cast<std::size_t>(off.train_summaries[0].epochs));
}

// --- Drift ------------------------------------------------------------------

TEST(DriftTest, NearestRankQuantile) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // 10..1, unsorted input
  EXPECT_DOUBLE_EQ(NearestRankQuantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile(v, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile(v, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile(v, 0.0), 1.0);   // clamped to min
  EXPECT_DOUBLE_EQ(NearestRankQuantile(v, 1.0), 10.0);  // max
  EXPECT_DOUBLE_EQ(NearestRankQuantile({}, 0.5), 0.0);  // empty
  EXPECT_DOUBLE_EQ(NearestRankQuantile({3.5}, 0.25), 3.5);
  // rank = ceil(q * N) over the sorted samples, 1-based.
  const std::vector<double> five = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(NearestRankQuantile(five, 0.50), 3.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile(five, 0.95), 5.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile(five, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile(five, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile({7.0}, 0.5), 7.0);
}

TEST(DriftTest, NearZeroReferenceNeedsAbsoluteShiftToAlert) {
  // Sparse aspects commonly have a reference median of ~0; any tiny
  // numeric wobble then explodes the *relative* shift. The absolute
  // floor keeps those from becoming a false-alert storm.
  ScoreGrid reference({"sparse"}, 4, 0, 10);
  ScoreGrid current({"sparse"}, 4, 10, 20);
  for (int u = 0; u < 4; ++u) {
    for (int d = 0; d < 10; ++d) {
      reference.At(0, u, d) = 1e-9f;
      current.At(0, u, 10 + d) = 5e-8f;  // 50x relative, ~5e-8 absolute
    }
  }
  DriftConfig cfg;
  cfg.enabled = true;
  const auto drift = ComputeScoreDrift(reference, current, cfg);
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_FALSE(drift[0].alert);
  for (const QuantileShift& s : drift[0].shifts) EXPECT_FALSE(s.alert);

  // Dropping the floor restores the storm, proving the floor is what
  // suppressed it.
  cfg.min_abs_shift = 0.0;
  const auto noisy = ComputeScoreDrift(reference, current, cfg);
  ASSERT_EQ(noisy.size(), 1u);
  EXPECT_TRUE(noisy[0].alert);
}

TEST(DriftTest, GaugeNamesAreCompact) {
  EXPECT_EQ(DriftGaugeName("device", 0.5), "drift.device.q50");
  EXPECT_EQ(DriftGaugeName("device", 0.9), "drift.device.q90");
  EXPECT_EQ(DriftGaugeName("device", 0.99), "drift.device.q99");
  EXPECT_EQ(DriftGaugeName("device", 0.995), "drift.device.q99.5");
  // 0.29 * 100 is 28.999... in binary floating point; the name must
  // round to the integer, not trail a spurious ".0".
  EXPECT_EQ(DriftGaugeName("device", 0.29), "drift.device.q29");
  EXPECT_EQ(DriftGaugeName("http", 0.999), "drift.http.q99.9");
}

TEST(DriftTest, ShiftedDistributionRaisesAlert) {
  // Reference scores ~1.0; current scores doubled: every quantile
  // shifts by +100%, far past the 25% threshold.
  ScoreGrid reference({"device", "http"}, 3, 0, 10);
  ScoreGrid current({"device", "http"}, 3, 10, 20);
  Rng rng(5);
  for (int a = 0; a < 2; ++a) {
    for (int u = 0; u < 3; ++u) {
      for (int d = 0; d < 10; ++d) {
        const float v = 0.9f + 0.02f * static_cast<float>(rng.NextPoisson(5));
        reference.At(a, u, d) = v;
        current.At(a, u, 10 + d) = a == 0 ? 2.0f * v : v;  // only device moves
      }
    }
  }
  DriftConfig cfg;
  cfg.enabled = true;
  const auto drift = ComputeScoreDrift(reference, current, cfg);
  ASSERT_EQ(drift.size(), 2u);
  EXPECT_EQ(drift[0].aspect_name, "device");
  EXPECT_TRUE(drift[0].alert);
  ASSERT_EQ(drift[0].shifts.size(), 3u);
  for (const QuantileShift& s : drift[0].shifts) {
    EXPECT_NEAR(s.rel_shift, 1.0, 0.05);
    EXPECT_TRUE(s.alert);
    EXPECT_GT(s.current, s.reference);
  }
  EXPECT_EQ(drift[1].aspect_name, "http");
  EXPECT_FALSE(drift[1].alert);  // unmoved aspect stays quiet
  for (const QuantileShift& s : drift[1].shifts) {
    EXPECT_NEAR(s.rel_shift, 0.0, 0.05);
  }
}

TEST(DriftTest, DisabledAndUnmatchedAspects) {
  ScoreGrid reference({"a"}, 2, 0, 5);
  ScoreGrid current({"a", "b"}, 2, 5, 10);
  DriftConfig off;  // enabled = false
  EXPECT_TRUE(ComputeScoreDrift(reference, current, off).empty());
  DriftConfig on;
  on.enabled = true;
  // Aspect "b" has no reference counterpart and is skipped.
  const auto drift = ComputeScoreDrift(reference, current, on);
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_EQ(drift[0].aspect_name, "a");
}

// --- Ledger -----------------------------------------------------------------

TEST(LedgerTest, EventsRoundTripThroughJson) {
  RunLedger ledger;
  {
    LedgerEvent manifest = MakeManifestEvent("unit-test", GetBuildInfo());
    manifest.Str("in", "/tmp/data \"quoted\"\npath");  // exercises escaping
    manifest.Int("seed", 42);
    manifest.Bool("resume", false);
    ledger.Append(manifest);
  }
  {
    LedgerEvent trained("aspect_trained");
    trained.Str("aspect", "http");
    trained.Int("attempts", 2);
    trained.Num("final_loss", 0.125);
    const std::vector<float> losses = {1.0f, 0.5f, 0.125f};
    trained.NumList("epoch_losses", losses);
    const std::vector<std::string> degraded = {"ldap", "file"};
    trained.StrList("degraded", degraded);
    trained.Raw("extra", "{\"k\":[1,2]}");
    ledger.Append(trained);
  }
  ledger.Append(LedgerEvent("run_complete").Int("events", 3));
  EXPECT_EQ(ledger.event_count(), 3u);

  std::ostringstream out;
  ledger.WriteTo(out);
  const auto events = json::ParseLines(out.str());
  ASSERT_EQ(events.size(), 3u);

  const json::Value& manifest = events[0];
  EXPECT_EQ(manifest.GetString("schema", ""), "acobe.ledger.v1");
  EXPECT_EQ(manifest.GetString("event", ""), "manifest");
  EXPECT_EQ(manifest.GetString("tool", ""), "unit-test");
  EXPECT_EQ(manifest.GetString("in", ""), "/tmp/data \"quoted\"\npath");
  EXPECT_DOUBLE_EQ(manifest.GetNumber("seed", -1), 42.0);
  EXPECT_FALSE(manifest.GetBool("resume", true));
  const json::Value* build = manifest.Get("build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->GetString("version", ""), kAcobeVersion);

  const json::Value& trained = events[1];
  EXPECT_EQ(trained.GetString("event", ""), "aspect_trained");
  EXPECT_DOUBLE_EQ(trained.GetNumber("final_loss", 0), 0.125);
  const json::Value* losses = trained.Get("epoch_losses");
  ASSERT_NE(losses, nullptr);
  ASSERT_EQ(losses->size(), 3u);
  EXPECT_DOUBLE_EQ((*losses)[2].AsNumber(), 0.125);
  const json::Value* degraded = trained.Get("degraded");
  ASSERT_NE(degraded, nullptr);
  ASSERT_EQ(degraded->size(), 2u);
  EXPECT_EQ((*degraded)[0].AsString(), "ldap");
  const json::Value* extra = trained.Get("extra");
  ASSERT_NE(extra, nullptr);
  ASSERT_TRUE(extra->is_object());
  EXPECT_DOUBLE_EQ((*extra->Get("k"))[1].AsNumber(), 2.0);

  EXPECT_EQ(events[2].GetString("event", ""), "run_complete");
}

TEST(LedgerTest, WriteFileIsWholeAndReparsable) {
  const std::string path = ::testing::TempDir() + "/acobe_ledger_test.jsonl";
  RunLedger ledger;
  ledger.Append(MakeManifestEvent("unit-test", GetBuildInfo()));
  ledger.Append(LedgerEvent("run_complete").Int("events", 2));
  ASSERT_TRUE(ledger.WriteFile(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto events = json::ParseLines(buf.str());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].GetString("schema", ""), "acobe.ledger.v1");
  std::remove(path.c_str());
}

// --- JSON reader ------------------------------------------------------------

TEST(JsonTest, ParsesNestedDocument) {
  const auto doc = json::Value::Parse(
      "{\"a\": [1, 2.5, -3e2], \"s\": \"h\\u0041\\n\", \"o\": {\"b\": true},"
      " \"n\": null}");
  ASSERT_TRUE(doc.is_object());
  const json::Value* a = doc.Get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ((*a)[2].AsNumber(), -300.0);
  EXPECT_EQ(doc.GetString("s", ""), "hA\n");
  EXPECT_TRUE(doc.Get("o")->GetBool("b", false));
  EXPECT_TRUE(doc.Get("n")->is_null());
  EXPECT_EQ(doc.Get("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(json::Value::Parse("{\"a\": }"), json::ParseError);
  EXPECT_THROW(json::Value::Parse("[1, 2"), json::ParseError);
  EXPECT_THROW(json::Value::Parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::Value::Parse(""), json::ParseError);
  EXPECT_THROW(json::Value::Parse("nul"), json::ParseError);
  // Type mismatches throw logic errors, not silent coercions.
  const auto doc = json::Value::Parse("{\"x\": 1}");
  EXPECT_THROW(doc.Get("x")->AsString(), std::logic_error);
  EXPECT_THROW(doc.AsNumber(), std::logic_error);
}

TEST(JsonTest, ParseLinesSkipsBlanksAndReportsBadLine) {
  const auto events = json::ParseLines("{\"a\":1}\n\n{\"b\":2}\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[1].GetNumber("b", 0), 2.0);
  EXPECT_THROW(json::ParseLines("{\"a\":1}\n{oops\n"), json::ParseError);
}

}  // namespace
}  // namespace acobe
