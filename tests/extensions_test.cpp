// Tests for the extension modules: ensemble persistence, the
// waveform-aware advanced critic (the paper's Section VII.B future
// work), and the operational monitor.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "behavior/normalized_day.h"
#include "core/ensemble_io.h"
#include "core/monitor.h"
#include "core/waveform_critic.h"
#include "nn/autoencoder.h"

namespace acobe {
namespace {

const Date kStart(2010, 1, 4);

// --- Ensemble persistence ------------------------------------------------

MeasurementCube ToyCube(int users, int days) {
  MeasurementCube cube(kStart, days, 2, 1);
  Rng rng(51);
  for (int u = 0; u < users; ++u) {
    cube.RegisterUser(100 + u);
    for (int d = 0; d < days; ++d) {
      cube.At(u, 0, d, 0) = static_cast<float>(rng.NextPoisson(5.0));
      cube.At(u, 1, d, 0) = static_cast<float>(rng.NextPoisson(2.0));
    }
  }
  return cube;
}

TEST(EnsembleIoTest, RoundTripReproducesScores) {
  MeasurementCube cube = ToyCube(5, 30);
  NormalizedDayBuilder builder(&cube, 0, 20);
  FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});
  EnsembleConfig cfg;
  cfg.encoder_dims = {8, 4};
  cfg.train.epochs = 5;
  cfg.seed = 3;
  AspectEnsemble ensemble(catalog.aspects(), cfg);
  ensemble.Train(builder, 5, 0, 20);
  const ScoreGrid before = ensemble.Score(builder, 5, 20, 30);

  std::stringstream ss;
  SaveEnsemble(ensemble, ss);
  AspectEnsemble loaded = LoadEnsemble(ss);
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.aspect_count(), 2);
  EXPECT_EQ(loaded.aspect(0).name, "x");
  const ScoreGrid after = loaded.Score(builder, 5, 20, 30);
  for (int a = 0; a < 2; ++a) {
    for (int u = 0; u < 5; ++u) {
      for (int d = 20; d < 30; ++d) {
        EXPECT_FLOAT_EQ(before.At(a, u, d), after.At(a, u, d));
      }
    }
  }
}

TEST(EnsembleIoTest, UntrainedSaveThrows) {
  FeatureCatalog catalog({{"f0", "x", 1.0}});
  AspectEnsemble ensemble(catalog.aspects(), EnsembleConfig{});
  std::stringstream ss;
  EXPECT_THROW(SaveEnsemble(ensemble, ss), std::logic_error);
}

TEST(EnsembleIoTest, OutOfRangeFeatureIndexIsRejectedAtScore) {
  // A CRC-valid ensemble may name any feature index up to the format's
  // cap; scoring it against a 2-feature cube must fail up front naming
  // the aspect, not read past the builder's statistics.
  const MeasurementCube cube = ToyCube(5, 30);
  const NormalizedDayBuilder builder(&cube, 0, 20);
  nn::AutoencoderSpec spec;
  spec.input_dim = 1;
  spec.encoder_dims = {2, 1};
  std::vector<nn::Sequential> models;
  models.push_back(nn::BuildAutoencoder(spec));
  AspectEnsemble crafted = AspectEnsemble::FromTrainedModels(
      {{"wild", {1000}}}, EnsembleConfig{}, std::move(models), {spec});
  std::stringstream ss;
  SaveEnsemble(crafted, ss);
  const AspectEnsemble loaded = LoadEnsemble(ss);
  try {
    loaded.Score(builder, 5, 20, 30);
    FAIL() << "scored an aspect indexing feature 1000 of 2";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'wild'"), std::string::npos)
        << e.what();
  }
}

TEST(EnsembleIoTest, LegacyV1MagicIsRejected) {
  // The unframed v1 format is no longer read: its magic fails up front
  // instead of the payload being parsed.
  const std::uint32_t v1_magic = 0xAC0BE002;
  std::string bytes(reinterpret_cast<const char*>(&v1_magic), 4);
  bytes.append(64, '\0');
  std::stringstream ss(bytes);
  try {
    LoadEnsemble(ss);
    FAIL() << "v1 bytes loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

// --- Waveform critic --------------------------------------------------------

ScoreGrid GridFromSeries(const std::vector<std::vector<float>>& users) {
  ScoreGrid grid({"a"}, static_cast<int>(users.size()), 0,
                 static_cast<int>(users[0].size()));
  for (std::size_t u = 0; u < users.size(); ++u) {
    for (std::size_t d = 0; d < users[u].size(); ++d) {
      grid.At(0, static_cast<int>(u), static_cast<int>(d)) = users[u][d];
    }
  }
  return grid;
}

std::vector<float> Flat(int n, float v) { return std::vector<float>(n, v); }

TEST(WaveformCriticTest, ClassifiesFlat) {
  const auto grid = GridFromSeries({Flat(30, 0.1f)});
  const auto f = AnalyzeWaveform(grid, 0, 0, WaveformCriticConfig{});
  EXPECT_EQ(f.kind, WaveformKind::kFlat);
}

TEST(WaveformCriticTest, ClassifiesBurstDecay) {
  // Quiet baseline, burst, then a long smooth decay.
  std::vector<float> s = Flat(12, 0.1f);
  float level = 1.0f;
  for (int i = 0; i < 18; ++i) {
    s.push_back(level);
    level *= 0.85f;
  }
  const auto grid = GridFromSeries({s});
  const auto f = AnalyzeWaveform(grid, 0, 0, WaveformCriticConfig{});
  EXPECT_EQ(f.kind, WaveformKind::kBurstDecay);
  EXPECT_GT(f.peak_z, 2.5);
  EXPECT_GT(f.decay_fraction, 0.9);
}

TEST(WaveformCriticTest, ClassifiesRecentSpike) {
  std::vector<float> s = Flat(28, 0.1f);
  s.push_back(1.0f);
  s.push_back(1.1f);
  const auto grid = GridFromSeries({s});
  const auto f = AnalyzeWaveform(grid, 0, 0, WaveformCriticConfig{});
  EXPECT_EQ(f.kind, WaveformKind::kRecentSpike);
  EXPECT_TRUE(f.recent);
}

TEST(WaveformCriticTest, ClassifiesChaoticOldRaise) {
  // Long quiet baseline, then rough oscillation (never a smooth decay)
  // that ends well before the window does.
  std::vector<float> s = Flat(34, 0.1f);
  for (int i = 0; i < 10; ++i) s.push_back(i % 2 ? 1.2f : 0.4f);
  for (int i = 0; i < 6; ++i) s.push_back(0.12f);
  WaveformCriticConfig cfg;
  cfg.recent_days = 3;
  const auto grid = GridFromSeries({s});
  const auto f = AnalyzeWaveform(grid, 0, 0, cfg);
  EXPECT_EQ(f.kind, WaveformKind::kChaotic);
  EXPECT_GT(f.roughness, 0.5);
}

TEST(WaveformCriticTest, BenignBurstRankedBelowAttack) {
  // User 0: burst-decay (new project). User 1: recent chaotic raise
  // (attack-like) with the *same* magnitude. User 2: flat.
  std::vector<float> benign = Flat(12, 0.1f);
  float level = 1.2f;
  for (int i = 0; i < 18; ++i) {
    benign.push_back(level);
    level *= 0.85f;
  }
  std::vector<float> attack = Flat(22, 0.1f);
  for (int i = 0; i < 8; ++i) attack.push_back(i % 2 ? 0.9f : 0.5f);
  const auto grid = GridFromSeries({benign, attack, Flat(30, 0.1f)});

  WaveformCriticConfig cfg;
  cfg.n_votes = 1;
  const auto list = WaveformRankUsers(grid, cfg);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].user_idx, 1);  // the attack-like user leads
  // The plain critic would rank them by magnitude alone (benign first).
  const auto plain = RankUsers(grid, 1, cfg.top_k_days);
  EXPECT_EQ(plain[0].user_idx, 0);
}

// --- Monitor ---------------------------------------------------------------

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
}  // namespace acobe
