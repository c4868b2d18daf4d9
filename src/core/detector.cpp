#include "core/detector.h"

#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
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

namespace {

/// Shards whose cubes may be resident at once above one thread: the one
/// detecting and the next one, which the calling thread feeds
/// meanwhile. A window of four measured no faster on a 4-thread,
/// 20-department run.
constexpr std::size_t kResidentShards = 2;

std::unique_ptr<DepartmentDemux> FeedShard(const DetectionShard& shard,
                                           const DetectionDays& days) {
  auto demux = std::make_unique<DepartmentDemux>(days.start, days.days);
  for (const DepartmentJob& job : shard.jobs) {
    demux->AddDepartment(job.name, job.members);
  }
  shard.feed(*demux);
  return demux;
}

DetectionOutput DetectJob(const DetectorSpec& spec, const DepartmentJob& job,
                          const DepartmentDemux& demux, int dept,
                          const DetectionDays& days) {
  return Detector(spec).Run(demux.extractor(dept).cube(),
                            demux.extractor(dept).catalog(), job.members,
                            /*train_begin=*/0, days.train_end,
                            days.score_begin, days.score_end);
}

/// DetectDepartments above one thread. Pool tasks claim jobs in
/// (shard, job) order under `mutex_`, so `proceed` sees them in order
/// and a stop always leaves a prefix. The destructor joins every task,
/// so none outlives the state it references, whatever throws.
class DepartmentFanOut {
 public:
  DepartmentFanOut(const std::vector<DetectionShard>& shards,
                   const DetectionDays& days, int threads,
                   const std::function<bool(std::size_t)>& proceed)
      : shards_(shards),
        days_(days),
        pool_(SharedPool(threads)),
        proceed_(proceed),
        cubes_(shards.size()),
        jobs_done_(shards.size(), 0) {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      first_job_.push_back(job_shard_.size());
      job_shard_.insert(job_shard_.end(), shards[s].jobs.size(), s);
    }
    outputs_.resize(job_shard_.size());
    end_ = job_shard_.size();
  }

  DepartmentFanOut(const DepartmentFanOut&) = delete;
  DepartmentFanOut& operator=(const DepartmentFanOut&) = delete;

  ~DepartmentFanOut() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    for (std::future<void>& task : tasks_) task.wait();
  }

  std::vector<DetectionOutput> Run() {
    std::deque<std::size_t> resident;
    for (std::size_t s = 0; s < shards_.size() && !Stopped(); ++s) {
      if (shards_[s].jobs.empty()) continue;
      std::unique_ptr<DepartmentDemux> demux;
      try {
        demux = FeedShard(shards_[s], days_);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        Fail(2 * first_job_[s], std::current_exception());
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        cubes_[s] = std::move(demux);
      }
      for (std::size_t j = 0; j < shards_[s].jobs.size(); ++j) {
        tasks_.push_back(pool_.Submit([this] { RunNextJob(); }));
      }
      resident.push_back(s);
      while (resident.size() >= kResidentShards) {
        WaitForShard(resident.front());
        resident.pop_front();
      }
    }
    for (std::future<void>& task : tasks_) task.wait();
    if (failure_) std::rethrow_exception(failure_);
    outputs_.resize(end_);
    return std::move(outputs_);
  }

 private:
  bool Stopped() {
    std::lock_guard<std::mutex> lock(mutex_);
    return stop_;
  }

  /// Records a failure (callers hold `mutex_`). `key` orders failures
  /// as the serial loop would meet them: 2 * first job for a shard's
  /// feed, 2 * job + 1 for a job.
  void Fail(std::size_t key, std::exception_ptr error) {
    if (!failure_ || key < failure_key_) {
      failure_ = std::move(error);
      failure_key_ = key;
    }
    stop_ = true;
    changed_.notify_all();
  }

  /// Blocks until every job of shard `s` finished, then frees its cubes.
  /// Returns early (keeping the cubes) once the run stopped.
  void WaitForShard(std::size_t s) {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] {
      return stop_ || jobs_done_[s] == shards_[s].jobs.size();
    });
    if (!stop_) cubes_[s].reset();
  }

  /// One pool task: claims the next job and runs it. `proceed` runs
  /// under the lock, atomically with the claim, so its calls come in
  /// job order.
  void RunNextJob() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_) return;
    const std::size_t k = next_job_++;
    const std::size_t s = job_shard_[k];
    try {
      if (proceed_ && !proceed_(k)) {
        end_ = k;
        stop_ = true;
        changed_.notify_all();
        return;
      }
      const DepartmentDemux& demux = *cubes_[s];
      lock.unlock();
      const std::size_t j = k - first_job_[s];
      const DepartmentJob& job = shards_[s].jobs[j];
      DetectorSpec spec = job.spec;
      spec.ensemble.threads = 1;
      outputs_[k] = DetectJob(spec, job, demux, static_cast<int>(j), days_);
      lock.lock();
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      Fail(2 * k + 1, std::current_exception());
    }
    ++jobs_done_[s];
    changed_.notify_all();
  }

  const std::vector<DetectionShard>& shards_;
  const DetectionDays& days_;
  ThreadPool& pool_;
  const std::function<bool(std::size_t)>& proceed_;
  std::vector<std::size_t> first_job_;  // shard -> index of its first job
  std::vector<std::size_t> job_shard_;  // job -> shard
  std::vector<DetectionOutput> outputs_;
  std::vector<std::future<void>> tasks_;

  std::mutex mutex_;
  std::condition_variable changed_;  // a job finished or the run stopped
  std::vector<std::unique_ptr<DepartmentDemux>> cubes_;  // by shard
  std::vector<std::size_t> jobs_done_;                   // by shard
  std::size_t next_job_ = 0;
  std::size_t end_ = 0;  // where `proceed` declined, else the job count
  bool stop_ = false;
  std::exception_ptr failure_;
  std::size_t failure_key_ = 0;
};

}  // namespace

std::vector<DetectionOutput> DetectDepartments(
    const std::vector<DetectionShard>& shards, const DetectionDays& days,
    int threads, const std::function<bool(std::size_t)>& proceed) {
  if (ResolveThreadCount(threads) > 1 && !OnWorkerThread()) {
    return DepartmentFanOut(shards, days, threads, proceed).Run();
  }
  std::vector<DetectionOutput> outputs;
  for (const DetectionShard& shard : shards) {
    if (shard.jobs.empty()) continue;
    const std::unique_ptr<DepartmentDemux> demux = FeedShard(shard, days);
    for (std::size_t j = 0; j < shard.jobs.size(); ++j) {
      if (proceed && !proceed(outputs.size())) return outputs;
      outputs.push_back(DetectJob(shard.jobs[j].spec, shard.jobs[j], *demux,
                                  static_cast<int>(j), days));
    }
  }
  return outputs;
}

}  // namespace acobe
