#include "core/detector.h"

#include <stdexcept>

#include "common/health.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "features/shard_extract.h"

namespace acobe {
namespace {

std::vector<AspectGroup> EffectiveAspects(const FeatureCatalog& catalog,
                                          bool split) {
  if (split) return catalog.aspects();
  AspectGroup all;
  all.name = "all-in-1";
  for (int f = 0; f < catalog.feature_count(); ++f) {
    all.feature_indices.push_back(f);
  }
  return {all};
}

}  // namespace

DetectorSpec AcobeSpec(int omega, int epochs, int votes) {
  DetectorSpec spec;
  spec.deviation.omega = omega;
  spec.deviation.matrix_days = omega;
  spec.ensemble.encoder_dims = {64, 32, 16, 8};
  spec.ensemble.train.epochs = epochs;
  spec.ensemble.train_stride = 2;
  spec.ensemble.optimizer = OptimizerKind::kAdam;
  spec.ensemble.learning_rate = 1e-3f;
  spec.critic_votes = votes;
  return spec;
}

DetectionOutput Detector::Run(const MeasurementCube& cube,
                              const FeatureCatalog& catalog,
                              const std::vector<UserId>& members,
                              int train_begin, int train_end, int score_begin,
                              int score_end, std::ostream* log) const {
  if (members.empty()) {
    throw std::invalid_argument("Detector::Run: no group members");
  }
  telemetry::TraceSpan run_span("detector.run", spec_.name);
  // Dense member -> cube entity index map.
  std::vector<int> member_map;
  std::vector<UserId> member_ids;
  for (UserId user : members) {
    const int idx = cube.UserIndex(user);
    if (idx < 0) continue;  // user produced no events at all
    member_map.push_back(idx);
    member_ids.push_back(user);
  }
  if (member_map.empty()) {
    throw std::invalid_argument("Detector::Run: no member has measurements");
  }
  const int n_members = static_cast<int>(member_map.size());

  ACOBE_GAUGE_MAX("detector.group_members", n_members);

  // Build the behavioral representation.
  std::unique_ptr<DeviationSeries> user_series;
  std::unique_ptr<SampleBuilder> base_builder;
  {
    telemetry::TraceSpan representation_span("detector.representation");
    if (spec_.representation == Representation::kCompound) {
      // One knob drives the whole run: an unset deviation thread count
      // inherits the ensemble's.
      DeviationConfig dev_config = spec_.deviation;
      if (dev_config.threads == 0) dev_config.threads = spec_.ensemble.threads;
      user_series = std::make_unique<DeviationSeries>(
          DeviationSeries::Compute(cube, dev_config));
      std::vector<DeviationSeries> groups;
      std::vector<int> group_of_user;
      if (spec_.deviation.include_group) {
        const std::vector<float> mean = TrimmedGroupMeanSeries(
            cube, member_map, spec_.deviation.group_trim);
        groups.push_back(DeviationSeries::ComputeFromSeries(
            mean, cube.features(), cube.days(), cube.frames(),
            spec_.deviation));
        group_of_user.assign(cube.users(), 0);
      }
      base_builder = std::make_unique<CompoundMatrixBuilder>(
          user_series.get(), std::move(groups), std::move(group_of_user));
    } else {
      const int norm_begin = std::max(0, train_begin);
      const int norm_end = std::min(cube.days(), train_end);
      base_builder =
          std::make_unique<NormalizedDayBuilder>(&cube, norm_begin, norm_end);
    }
  }
  SubsetBuilder builder(base_builder.get(), member_map);

  AspectEnsemble ensemble(EffectiveAspects(catalog, spec_.split_aspects),
                          spec_.ensemble);
  auto epoch_logger =
      log ? [log, this](const std::string& aspect, const nn::EpochStats& s) {
        if (s.epoch % 5 == 0) {
          (*log) << "[" << spec_.name << "/" << aspect << "] epoch " << s.epoch
                 << " loss " << s.loss << "\n";
        }
      }
          : std::function<void(const std::string&, const nn::EpochStats&)>();
  {
    telemetry::TraceSpan train_span("detector.train");
    ensemble.Train(builder, n_members, train_begin, train_end, epoch_logger);
  }

  DetectionOutput out;
  out.degraded_aspects = ensemble.failed_aspects();
  out.train_summaries = ensemble.train_summaries();
  if (!out.degraded_aspects.empty() && log) {
    (*log) << "[" << spec_.name << "] WARNING: scoring without "
           << out.degraded_aspects.size() << " diverged aspect(s):";
    for (const std::string& name : out.degraded_aspects) (*log) << " " << name;
    (*log) << "\n";
  }
  {
    telemetry::TraceSpan score_span("detector.score");
    out.grid = ensemble.Score(builder, n_members, score_begin, score_end);
  }
  health::StageAdvance();  // the department's scoring unit
  // The training-window grid serves double duty: the calibration
  // baseline and the drift reference. Computed once, and only when one
  // of the two consumers needs it.
  ScoreGrid train_grid;
  if (spec_.per_user_calibration || spec_.drift.enabled) {
    train_grid = ensemble.Score(builder, n_members, train_begin, train_end);
  }
  if (spec_.drift.enabled) {
    // Drift compares raw reconstruction-error distributions, so it runs
    // before calibration rescales out.grid.
    out.drift = ComputeScoreDrift(train_grid, out.grid, spec_.drift);
    if (log) {
      for (const AspectDrift& drift : out.drift) {
        if (!drift.alert) continue;
        (*log) << "[" << spec_.name << "] WARNING: score drift on aspect "
               << drift.aspect_name << " (";
        for (std::size_t i = 0; i < drift.shifts.size(); ++i) {
          if (i) (*log) << ", ";
          (*log) << "q" << drift.shifts[i].q * 100.0 << " "
                 << drift.shifts[i].rel_shift * 100.0 << "%";
        }
        (*log) << ")\n";
      }
    }
  }
  if (spec_.per_user_calibration) {
    telemetry::TraceSpan calibrate_span("detector.calibrate");
    // Baseline each user against their own training-window error,
    // shrunk towards the population mean so users with near-zero
    // training error cannot explode a stray test-day blip into a
    // top-of-list ratio.
    const int threads = spec_.ensemble.threads;
    for (int a = 0; a < out.grid.aspects(); ++a) {
      // Per-user means in parallel (disjoint writes), then a serial
      // reduction in user order so the population mean — and with it
      // every calibrated score — is bit-identical at any thread count.
      std::vector<double> user_mean(n_members, 0.0);
      ParallelFor(0, n_members, threads, [&](int u) {
        for (int d = train_grid.day_begin(); d < train_grid.day_end(); ++d) {
          user_mean[u] += train_grid.At(a, u, d);
        }
        user_mean[u] /= train_grid.day_count();
      });
      double population_mean = 0.0;
      for (int u = 0; u < n_members; ++u) population_mean += user_mean[u];
      population_mean /= n_members;
      ParallelFor(0, n_members, threads, [&](int u) {
        const float denom = static_cast<float>(
            user_mean[u] + 0.5 * population_mean + 1e-9);
        for (int d = out.grid.day_begin(); d < out.grid.day_end(); ++d) {
          out.grid.At(a, u, d) /= denom;
        }
      });
    }
  }
  {
    telemetry::TraceSpan rank_span("detector.rank");
    out.list =
        RankUsers(out.grid, spec_.critic_votes, spec_.score_top_k_days);
  }
  if (spec_.attribution.enabled) {
    // After ranking: attribution explains the list that was actually
    // produced. Read-only over the ensemble/grid, so scores stay
    // bit-identical with attribution on or off.
    out.attributions = AttributeDetections(ensemble, builder, out.grid,
                                           out.list, spec_.attribution);
  }
  ACOBE_COUNT("detector.runs", 1);
  out.members = std::move(member_ids);
  return out;
}

std::vector<DetectionOutput> DetectDepartments(
    const std::vector<DepartmentJob>& jobs, const DetectionDays& days,
    const std::function<void(LogSink&)>& feed,
    const std::function<bool(std::size_t)>& proceed) {
  std::vector<DetectionOutput> outputs;
  DepartmentDemux demux(days.start, days.days);
  for (const DepartmentJob& job : jobs) {
    demux.AddDepartment(job.name, job.members);
  }
  feed(demux);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (proceed && !proceed(j)) break;
    const int d = static_cast<int>(j);
    outputs.push_back(Detector(jobs[j].spec)
                          .Run(demux.extractor(d).cube(),
                               demux.extractor(d).catalog(), jobs[j].members,
                               /*train_begin=*/0, days.train_end,
                               days.score_begin, days.score_end));
  }
  return outputs;
}

}  // namespace acobe
