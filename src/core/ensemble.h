#pragma once

// The ensemble of deep fully-connected autoencoders at ACOBE's heart:
// one autoencoder per behavioral aspect (Section IV.B). Each model is
// trained to reconstruct the aspect's behavioral representation for all
// users over the training day range; anomaly scores are per-sample
// reconstruction errors.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "behavior/sample_builder.h"
#include "core/score_grid.h"
#include "features/feature_catalog.h"
#include "nn/autoencoder.h"
#include "nn/trainer.h"

namespace acobe {

enum class OptimizerKind {
  kAdadelta,  // the paper's choice
  kAdam,      // converges in far fewer epochs; used at reduced scale
};

struct EnsembleConfig {
  /// Encoder widths (paper: 512-256-128-64). Scaled down for
  /// reduced-scale experiments.
  std::vector<std::size_t> encoder_dims = {512, 256, 128, 64};
  OptimizerKind optimizer = OptimizerKind::kAdadelta;
  float learning_rate = 1.0f;  // Adadelta scale; use ~1e-3 for Adam
  nn::TrainConfig train;
  /// Use every `train_stride`-th anchor day per user when assembling the
  /// training set (1 = all days).
  int train_stride = 1;
  std::uint64_t seed = 1234;
  /// Worker threads for Train (across aspects) and Score (across
  /// users). 0 = the ACOBE_THREADS environment variable, falling back
  /// to hardware concurrency (see common/parallel.h). Results are
  /// bit-identical for every thread count: per-aspect RNG streams are
  /// seed-derived and scoring writes disjoint grid cells.
  int threads = 0;
  /// When non-empty, each aspect's trained autoencoder is checkpointed
  /// here (crash-safe: atomic rename + CRC) as soon as it finishes, and
  /// with `resume` set, Train() loads matching checkpoints instead of
  /// retraining — a killed run restarts from the last completed aspect
  /// and reproduces the uninterrupted result bit-exactly. A corrupt or
  /// truncated checkpoint is discarded and retrained; a checkpoint
  /// whose architecture mismatches the config throws CheckpointMismatch
  /// (the directory belongs to a different run configuration).
  std::string checkpoint_dir;
  bool resume = false;
};

/// A resume checkpoint was valid but trained under a different
/// architecture than the current run (see EnsembleConfig::checkpoint_dir).
struct CheckpointMismatch : std::runtime_error {
  explicit CheckpointMismatch(const std::string& what)
      : std::runtime_error(what) {}
};

/// How one aspect's model came to be — provenance for the run ledger's
/// "aspect_trained" events. Filled by Train(), one entry per aspect in
/// aspect order.
struct AspectTrainSummary {
  std::string name;
  /// Training attempts consumed (divergence retries included); 0 when
  /// the model was resumed from a checkpoint instead of trained.
  int attempts = 0;
  bool resumed = false;
  bool ok = false;  // false = diverged on every attempt (degraded)
  int epochs = 0;   // epochs of the final (successful) attempt
  float final_loss = 0.0f;
  /// Per-epoch loss of the final attempt (earlier diverged attempts are
  /// dropped — their trajectories end in NaN/Inf by definition).
  std::vector<float> epoch_losses;
};

class AspectEnsemble {
 public:
  /// One autoencoder per entry of `aspects` (feature index groups).
  AspectEnsemble(std::vector<AspectGroup> aspects, EnsembleConfig config);

  /// Trains every aspect model on samples from `builder` for users
  /// [0, n_users) and anchor days [day_begin, day_end) intersected with
  /// the builder's valid range. An aspect whose epoch loss goes NaN/Inf
  /// retries deterministically, up to three attempts: attempt k
  /// re-derives fresh init/shuffle seeds from the base seed and halves
  /// the learning rate k times (attempt 0 reproduces the single-attempt
  /// seeds bit-exactly). An aspect that diverges on every attempt is
  /// marked failed (failed_aspects()) and Score() ranks from the rest;
  /// throws std::runtime_error when every aspect failed.
  void Train(const SampleBuilder& builder, int n_users, int day_begin,
             int day_end,
             const std::function<void(const std::string&, const nn::EpochStats&)>&
                 on_epoch = nullptr);

  /// Scores users over [day_begin, day_end) (intersected with validity).
  ScoreGrid Score(const SampleBuilder& builder, int n_users, int day_begin,
                  int day_end) const;

  int aspect_count() const { return static_cast<int>(aspects_.size()); }
  const AspectGroup& aspect(int i) const { return aspects_.at(i); }
  nn::Sequential& model(int i) { return models_.at(i); }
  const nn::Sequential& model(int i) const { return models_.at(i); }
  const nn::AutoencoderSpec& model_spec(int i) const { return specs_.at(i); }
  const EnsembleConfig& config() const { return config_; }
  bool trained() const { return trained_; }

  /// Health after Train(): an aspect whose training diverged on every
  /// attempt is unusable; Score() ranks from the healthy remainder.
  bool aspect_ok(int i) const { return trained_ && aspect_ok_.at(i) != 0; }
  bool degraded() const;
  int healthy_aspect_count() const;
  /// Names of irrecoverable aspects, in aspect order (for report flags).
  std::vector<std::string> failed_aspects() const;

  /// Per-aspect training provenance from the last Train() (aspect
  /// order); empty before training.
  const std::vector<AspectTrainSummary>& train_summaries() const {
    return summaries_;
  }

 private:
  nn::Tensor AssembleBatchForDays(const SampleBuilder& builder,
                                  const AspectGroup& aspect, int n_users,
                                  int day_begin, int day_end,
                                  int stride) const;

  std::vector<AspectGroup> aspects_;
  EnsembleConfig config_;
  std::vector<nn::Sequential> models_;
  std::vector<nn::AutoencoderSpec> specs_;
  std::vector<std::uint8_t> aspect_ok_;
  std::vector<AspectTrainSummary> summaries_;
  bool trained_ = false;
};

}  // namespace acobe
