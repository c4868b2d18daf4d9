#pragma once

// End-to-end detector: representation + ensemble + critic over one
// measurement cube. The DetectorSpec expresses ACOBE itself as well as
// every ablation/baseline the paper evaluates (see src/baselines for
// the ready-made specs).

#include <cstddef>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "behavior/compound_matrix.h"
#include "behavior/normalized_day.h"
#include "core/attribution.h"
#include "core/critic.h"
#include "core/drift.h"
#include "core/ensemble.h"
#include "features/feature_catalog.h"
#include "features/measurement_cube.h"
#include "logs/log_sink.h"

namespace acobe {

enum class Representation {
  kCompound,       // multi-day compound behavioral deviation matrix
  kNormalizedDay,  // single-day min-max normalized counts
};

struct DetectorSpec {
  std::string name = "acobe";
  Representation representation = Representation::kCompound;
  /// Compound-only knobs.
  DeviationConfig deviation;
  /// One autoencoder per catalog aspect (true) or a single all-in-one
  /// autoencoder over every feature (false).
  bool split_aspects = true;
  EnsembleConfig ensemble;
  /// Critic's N (votes); clamped to the aspect count.
  int critic_votes = 3;
  /// Per-aspect user score over the test window = mean of the k highest
  /// daily scores (1 = plain max). A sustained anomaly keeps several
  /// days elevated, while single-day score noise does not.
  int score_top_k_days = 7;
  /// Divide each user's scores by their mean reconstruction error over
  /// the training window. Cancels chronic per-user reconstruction
  /// difficulty (users with inherently noisier behavior), which
  /// otherwise dominates at small population sizes; the paper's 929-user
  /// population averages this out instead.
  bool per_user_calibration = true;
  /// Detection provenance, both default-off. Neither touches the
  /// train/score path, so enabling them leaves scores bit-identical
  /// (pinned by tests/provenance_test.cpp).
  AttributionConfig attribution;
  DriftConfig drift;
};

/// ACOBE as the tools run it: `omega`-day compound matrices, a
/// 64-32-16-8 encoder per aspect trained with Adam (lr 1e-3) on every
/// second day, and `votes` critic votes. Callers set the rest (name,
/// seed, threads, degradation, checkpoints) themselves.
DetectorSpec AcobeSpec(int omega, int epochs, int votes);

/// Exposes a user subset of a builder as dense indices [0, n).
class SubsetBuilder : public SampleBuilder {
 public:
  SubsetBuilder(const SampleBuilder* inner, std::vector<int> user_map)
      : inner_(inner), user_map_(std::move(user_map)) {}

  std::vector<float> BuildSample(int user_idx, std::span<const int> features,
                                 int day) const override {
    return inner_->BuildSample(user_map_.at(user_idx), features, day);
  }
  std::size_t SampleSize(std::size_t n_features) const override {
    return inner_->SampleSize(n_features);
  }
  int FirstValidDay() const override { return inner_->FirstValidDay(); }
  int EndDay() const override { return inner_->EndDay(); }
  SampleCellRef DescribeCell(std::size_t flat_index,
                             std::size_t n_features) const override {
    return inner_->DescribeCell(flat_index, n_features);
  }
  int SampleWindowDays() const override { return inner_->SampleWindowDays(); }

 private:
  const SampleBuilder* inner_;
  std::vector<int> user_map_;
};

struct DetectionOutput {
  ScoreGrid grid;                         // (aspect, member, day) scores
  std::vector<InvestigationEntry> list;   // critic output, member indices
  std::vector<UserId> members;            // dense member order
  /// Aspects whose training diverged on every retry (see
  /// AspectEnsemble::Train). Non-empty means the grid and list
  /// were produced from the remaining aspects only and the report must
  /// say so. The grid's aspect axis covers healthy aspects only.
  std::vector<std::string> degraded_aspects;
  // --- Provenance (filled per DetectorSpec's attribution/drift
  // --- settings; train_summaries always).
  /// Per-flagged-user cell attribution (empty unless
  /// spec.attribution.enabled).
  std::vector<UserAttribution> attributions;
  /// Raw-score drift, test window vs training window (empty unless
  /// spec.drift.enabled).
  std::vector<AspectDrift> drift;
  /// How each aspect's model came to be (attempts, resume, loss).
  std::vector<AspectTrainSummary> train_summaries;
};

class Detector {
 public:
  explicit Detector(DetectorSpec spec) : spec_(std::move(spec)) {}

  const DetectorSpec& spec() const { return spec_; }

  /// Trains on [train_begin, train_end) and scores [score_begin,
  /// score_end) for the group `members` (user ids present in `cube`).
  /// The group component of compound matrices is the mean behavior of
  /// `members` (the paper's department group).
  DetectionOutput Run(const MeasurementCube& cube,
                      const FeatureCatalog& catalog,
                      const std::vector<UserId>& members, int train_begin,
                      int train_end, int score_begin, int score_end,
                      std::ostream* log = nullptr) const;

 private:
  DetectorSpec spec_;
};

/// One department to detect: ACOBE scores each user against the group
/// behaviour of their own department.
struct DepartmentJob {
  std::string name;
  std::vector<UserId> members;
  DetectorSpec spec;
};

/// Day indices from `start`: the cube spans `days` days, training uses
/// [0, train_end) and scoring [score_begin, score_end).
struct DetectionDays {
  Date start;
  int days = 0;
  int train_end = 0;
  int score_begin = 0;
  int score_end = 0;
};

/// Departments with fewer members are not detected: a group this small
/// gives the group-behaviour aspect nothing to compare against. Both
/// acobe_detect and acobe_serve apply the cut.
inline constexpr std::size_t kMinDepartmentUsers = 3;

/// One shard of departments: `feed` delivers one day-ordered event
/// stream into the sink it is given, and every job's members' events
/// land in that job's own cube.
struct DetectionShard {
  std::vector<DepartmentJob> jobs;
  std::function<void(LogSink&)> feed;
};

/// The per-department detection unit `acobe_detect` and `acobe_serve`
/// both run. Each shard is fed once (a shard with no jobs is not fed)
/// and each of its jobs' Detector then runs on the job's own cube.
/// Outputs come back in (shard, job) order and are bit-identical at
/// any `threads` (resolved via ResolveThreadCount):
///   - at 1, or when called from a pool worker, shards run one after
///     another on the calling thread: the feed, then each job with its
///     own spec;
///   - above 1, jobs fan out over SharedPool(threads), one Detector
///     per task at spec.ensemble.threads = 1, while the calling thread
///     feeds the next shard. At most two shards' cubes are resident:
///     the one detecting and the one being fed.
/// `proceed(k)` (optional) is asked before the k-th job in (shard, job)
/// order starts, in order and never concurrently (above one thread,
/// from a pool worker). Returning false starts no further job, so the
/// result holds jobs [0, k) only. A failing feed or job stops further
/// jobs from starting, and its exception propagates once every started
/// job has finished; when several fail, the earliest in (shard, job)
/// order wins, a shard's feed counting before its jobs.
std::vector<DetectionOutput> DetectDepartments(
    const std::vector<DetectionShard>& shards, const DetectionDays& days,
    int threads, const std::function<bool(std::size_t)>& proceed = {});

}  // namespace acobe
