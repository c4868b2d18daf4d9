#include "core/ensemble.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/health.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace acobe {
namespace {

/// Checkpoint file for one aspect, named after the aspect with
/// filesystem-hostile characters mapped to '_'.
std::string CheckpointPath(const std::string& dir,
                           const std::string& aspect_name) {
  std::string stem;
  stem.reserve(aspect_name.size());
  for (char c : aspect_name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    stem.push_back(safe ? c : '_');
  }
  return dir + "/aspect_" + stem + ".ae";
}

// Divergence retry budget per aspect, and the learning-rate factor
// applied on each retry.
constexpr int kTrainAttempts = 3;
constexpr float kRetryLrDecay = 0.5f;

bool SpecsMatch(const nn::AutoencoderSpec& a, const nn::AutoencoderSpec& b) {
  return a.input_dim == b.input_dim && a.encoder_dims == b.encoder_dims &&
         a.batch_norm == b.batch_norm && a.sigmoid_output == b.sigmoid_output;
}

}  // namespace

AspectEnsemble::AspectEnsemble(std::vector<AspectGroup> aspects,
                               EnsembleConfig config)
    : aspects_(std::move(aspects)), config_(std::move(config)) {
  if (aspects_.empty()) {
    throw std::invalid_argument("AspectEnsemble: no aspects");
  }
  for (const AspectGroup& aspect : aspects_) {
    if (aspect.feature_indices.empty()) {
      throw std::invalid_argument("AspectEnsemble: empty aspect '" +
                                  aspect.name + "'");
    }
  }
}

bool AspectEnsemble::degraded() const {
  return trained_ && healthy_aspect_count() != aspect_count();
}

int AspectEnsemble::healthy_aspect_count() const {
  int n = 0;
  for (std::uint8_t ok : aspect_ok_) n += ok != 0;
  return n;
}

std::vector<std::string> AspectEnsemble::failed_aspects() const {
  std::vector<std::string> names;
  for (std::size_t a = 0; a < aspect_ok_.size(); ++a) {
    if (!aspect_ok_[a]) names.push_back(aspects_[a].name);
  }
  return names;
}

nn::Tensor AspectEnsemble::AssembleBatchForDays(const SampleBuilder& builder,
                                                const AspectGroup& aspect,
                                                int n_users, int day_begin,
                                                int day_end,
                                                int stride) const {
  const int first = std::max(day_begin, builder.FirstValidDay());
  const int last = std::min(day_end, builder.EndDay());
  if (first >= last) {
    throw std::invalid_argument(
        "AspectEnsemble: empty day range after clamping to builder validity");
  }
  const std::size_t dim = builder.SampleSize(aspect.feature_indices.size());
  std::size_t rows = 0;
  for (int d = first; d < last; d += stride) ++rows;
  rows *= static_cast<std::size_t>(n_users);

  nn::Tensor data(rows, dim);
  std::size_t row = 0;
  for (int u = 0; u < n_users; ++u) {
    for (int d = first; d < last; d += stride) {
      const std::vector<float> sample =
          builder.BuildSample(u, aspect.feature_indices, d);
      std::copy(sample.begin(), sample.end(), data.data() + row * dim);
      ++row;
    }
  }
  return data;
}

void AspectEnsemble::Train(
    const SampleBuilder& builder, int n_users, int day_begin, int day_end,
    const std::function<void(const std::string&, const nn::EpochStats&)>&
        on_epoch) {
  ACOBE_SPAN("ensemble.train");
  models_.clear();
  specs_.clear();
  models_.resize(aspects_.size());
  specs_.resize(aspects_.size());
  aspect_ok_.assign(aspects_.size(), 0);
  summaries_.assign(aspects_.size(), AspectTrainSummary{});
  trained_ = false;

  if (!config_.checkpoint_dir.empty()) {
    std::filesystem::create_directories(config_.checkpoint_dir);
  }

  // Epoch callbacks can arrive from worker threads; serialize them.
  // Their interleaving across aspects depends on scheduling, but each
  // model only consumes its own seed-derived RNG streams, so the
  // trained parameters are bit-identical however the epochs interleave.
  std::mutex epoch_mutex;

  // Phase 1 — per-aspect setup: spec, checkpoint resume, and batch
  // assembly for the aspects that still need training. Runs on the
  // shared pool so its warm workers carry straight into the training
  // stream below.
  std::vector<nn::Tensor> datas(aspects_.size());
  std::vector<std::uint8_t> needs_train(aspects_.size(), 0);
  ParallelFor(
      0, static_cast<int>(aspects_.size()), config_.threads,
      [&](int ai) {
        const std::size_t a = static_cast<std::size_t>(ai);
        const AspectGroup& aspect = aspects_[a];
        telemetry::TraceSpan aspect_span("ensemble.train_aspect", aspect.name);
        AspectTrainSummary& summary = summaries_[a];
        summary.name = aspect.name;
        nn::AutoencoderSpec spec;
        spec.input_dim = builder.SampleSize(aspect.feature_indices.size());
        spec.encoder_dims = config_.encoder_dims;
        spec.sigmoid_output = true;
        specs_[a] = spec;

        if (config_.resume && !config_.checkpoint_dir.empty()) {
          const std::string ckpt =
              CheckpointPath(config_.checkpoint_dir, aspect.name);
          telemetry::TraceSpan load_span("ensemble.checkpoint_load",
                                         aspect.name);
          std::ifstream in(ckpt, std::ios::binary);
          if (in) {
            try {
              nn::AutoencoderSpec loaded_spec;
              nn::Sequential net = nn::LoadAutoencoder(in, loaded_spec);
              if (!SpecsMatch(loaded_spec, spec)) {
                throw CheckpointMismatch(
                    "checkpoint " + ckpt +
                    " was trained under a different architecture");
              }
              models_[a] = std::move(net);
              aspect_ok_[a] = 1;
              summary.resumed = true;
              summary.ok = true;
              ACOBE_COUNT("ensemble.aspects_resumed", 1);
              health::StageAdvance();  // this aspect is done
              return;
            } catch (const CheckpointMismatch&) {
              throw;
            } catch (const std::exception&) {
              // Corrupt or truncated checkpoint (detected by its CRC):
              // discard it and retrain this aspect from scratch.
              ACOBE_COUNT("ensemble.checkpoints_corrupt", 1);
            }
          }
        }
        datas[a] =
            AssembleBatchForDays(builder, aspect, n_users, day_begin, day_end,
                                 std::max(1, config_.train_stride));
        needs_train[a] = 1;
      });

  // Phase 2 — training: every still-untrained aspect becomes one
  // TrainJob, and nn::TrainStream fans the jobs out over the shared
  // pool (a plain loop at one thread), each worker reusing its
  // workspace and pack arena. Divergence is handled per round:
  // diverged aspects re-enter the next round with the retry
  // seed/learning-rate derivations until the attempt budget runs out.
  struct Pending {
    std::size_t a;
    int attempt;
  };
  std::vector<Pending> pending;
  for (std::size_t a = 0; a < aspects_.size(); ++a) {
    if (needs_train[a]) pending.push_back({a, 0});
  }
  while (!pending.empty()) {
    telemetry::TraceSpan stream_span("ensemble.train_stream");
    std::vector<nn::Sequential> nets(pending.size());
    std::vector<std::unique_ptr<nn::Optimizer>> optimizers(pending.size());
    std::vector<nn::TrainJob> jobs(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const std::size_t a = pending[i].a;
      const AspectGroup& aspect = aspects_[a];
      AspectTrainSummary& summary = summaries_[a];
      summary.attempts = pending[i].attempt + 1;
      summary.epoch_losses.clear();
      nets[i] = nn::BuildAutoencoder(specs_[a]);
      // Attempt 0 reproduces the single-attempt seed derivations
      // bit-exactly; retries fork deterministic fresh streams.
      const std::uint64_t attempt_key =
          static_cast<std::uint64_t>(pending[i].attempt);
      Rng rng(config_.seed + a * 7919 + attempt_key * 0x9E3779B97F4A7C15ULL);
      nets[i].InitParams(rng);
      const float lr = config_.learning_rate *
                       std::pow(kRetryLrDecay,
                                static_cast<float>(pending[i].attempt));
      switch (config_.optimizer) {
        case OptimizerKind::kAdadelta:
          optimizers[i] = std::make_unique<nn::Adadelta>(lr);
          break;
        case OptimizerKind::kAdam:
          optimizers[i] = std::make_unique<nn::Adam>(lr);
          break;
      }
      nn::TrainJob& job = jobs[i];
      job.net = &nets[i];
      job.optimizer = optimizers[i].get();
      job.data = &datas[a];
      job.config = config_.train;
      job.config.seed =
          config_.seed + a * 104729 + attempt_key * 0xC2B2AE3D27D4EB4FULL;
      // Per-aspect per-epoch loss trajectory ("train.loss.<aspect>");
      // each aspect owns its Series, so concurrent appends never
      // contend.
      telemetry::Series* loss_series =
          telemetry::MetricsEnabled()
              ? &telemetry::GetSeries("train.loss." + aspect.name)
              : nullptr;
      job.on_epoch = [&summary, loss_series, &epoch_mutex, &on_epoch,
                      &aspect](const nn::EpochStats& s) {
        summary.epoch_losses.push_back(s.loss);
        if (loss_series) loss_series->Append(s.loss);
        if (on_epoch) {
          std::lock_guard<std::mutex> lock(epoch_mutex);
          on_epoch(aspect.name, s);
        }
      };
    }

    nn::TrainStream(jobs, config_.threads);

    std::vector<Pending> retry;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const std::size_t a = pending[i].a;
      AspectTrainSummary& summary = summaries_[a];
      if (jobs[i].diverged) {
        ACOBE_COUNT("ensemble.train_retries", 1);
        if (pending[i].attempt + 1 < kTrainAttempts) {
          retry.push_back({a, pending[i].attempt + 1});
          continue;
        }
        // Irrecoverable: leave aspect_ok_[a] == 0; Score() ranks from
        // the healthy remainder and reports flag the gap.
        ACOBE_COUNT("ensemble.aspects_failed", 1);
        health::StageAdvance();
        continue;
      }
      models_[a] = std::move(nets[i]);
      aspect_ok_[a] = 1;
      summary.ok = true;
      summary.epochs = static_cast<int>(summary.epoch_losses.size());
      summary.final_loss =
          summary.epoch_losses.empty() ? 0.0f : summary.epoch_losses.back();
      if (!config_.checkpoint_dir.empty()) {
        const std::string ckpt =
            CheckpointPath(config_.checkpoint_dir, aspects_[a].name);
        telemetry::TraceSpan save_span("ensemble.checkpoint_save",
                                       aspects_[a].name);
        nn::SaveAutoencoderFile(specs_[a], models_[a], ckpt);
      }
      health::StageAdvance();
    }
    pending = std::move(retry);
  }
  ACOBE_COUNT("ensemble.aspects_trained", healthy_aspect_count());
  trained_ = true;
  if (healthy_aspect_count() == 0) {
    trained_ = false;
    throw std::runtime_error(
        "AspectEnsemble::Train: every aspect diverged on every attempt");
  }
}

ScoreGrid AspectEnsemble::Score(const SampleBuilder& builder, int n_users,
                                int day_begin, int day_end) const {
  ACOBE_SPAN("ensemble.score");
  if (!trained_) throw std::logic_error("AspectEnsemble::Score before Train");
  const int first = std::max(day_begin, builder.FirstValidDay());
  const int last = std::min(day_end, builder.EndDay());
  if (first >= last) {
    throw std::invalid_argument("AspectEnsemble::Score: empty day range");
  }
  // Graceful degradation: rank only over aspects whose training
  // converged. Grid aspect h maps to ensemble aspect healthy[h]; with
  // no failures this is the identity and results are unchanged.
  std::vector<int> healthy;
  for (int a = 0; a < aspect_count(); ++a) {
    if (aspect_ok_[static_cast<std::size_t>(a)]) healthy.push_back(a);
  }
  if (healthy.empty()) {
    throw std::runtime_error("AspectEnsemble::Score: every aspect failed");
  }
  std::vector<std::string> names;
  names.reserve(healthy.size());
  for (int a : healthy) names.push_back(aspects_[a].name);
  ScoreGrid grid(std::move(names), n_users, first, last);

  // One work item per (aspect, user): each scores all of the user's days
  // in one batch through the aspect's model via the const Infer path
  // (models are shared read-only across workers; every item writes a
  // disjoint set of grid cells).
  const int n_aspects = static_cast<int>(healthy.size());
  const int n_days = last - first;
  // Pool-backed so scoring reuses the workers (and their thread-local
  // batch/scratch buffers) the training stream already warmed up.
  ParallelFor(0, n_aspects * n_users, config_.threads, [&](int item) {
    telemetry::TraceSpan item_span("ensemble.score_user");
    const int h = item / n_users;
    const int a = healthy[static_cast<std::size_t>(h)];
    const int u = item % n_users;
    const AspectGroup& aspect = aspects_[static_cast<std::size_t>(a)];
    const std::size_t dim = builder.SampleSize(aspect.feature_indices.size());
    const nn::Sequential& net = models_[static_cast<std::size_t>(a)];
    thread_local nn::Tensor batch;
    thread_local nn::Sequential::InferScratch scratch;
    thread_local std::vector<float> errors;
    batch.ResizeUninit(static_cast<std::size_t>(n_days), dim);
    for (int d = first; d < last; ++d) {
      const std::vector<float> sample =
          builder.BuildSample(u, aspect.feature_indices, d);
      std::copy(sample.begin(), sample.end(),
                batch.data() + static_cast<std::size_t>(d - first) * dim);
    }
    const nn::Tensor& pred = net.Infer(batch, scratch);
    if (errors.size() < static_cast<std::size_t>(n_days)) {
      errors.resize(static_cast<std::size_t>(n_days));
    }
    nn::PerSampleMse(pred, batch, errors.data());
    for (int d = first; d < last; ++d) {
      grid.At(h, u, d) = errors[d - first];
    }
  });
  ACOBE_COUNT("ensemble.samples_scored",
              static_cast<std::uint64_t>(n_aspects) * n_users * n_days);
  return grid;
}

}  // namespace acobe
