#pragma once

// Deterministic mini-batch trainer for reconstruction models.
//
// Two entry points, both producing bit-identical parameters for a given
// (net, data, config) because every model consumes only its own
// seed-derived RNG streams and its own accumulation order:
//   TrainReconstruction — one model, start to finish.
//   TrainStream         — a batch of models fanned out job-per-worker
//                         over the shared thread pool (a plain loop at
//                         one thread), each worker reusing its
//                         thread-local workspace, with per-job
//                         divergence capture.

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace acobe::nn {

struct TrainConfig {
  int epochs = 30;
  std::size_t batch_size = 64;
  std::uint64_t seed = 42;
};

struct EpochStats {
  int epoch = 0;
  float loss = 0.0f;
};

/// Epoch loss went NaN/Inf (exploding gradients, poisoned input, too
/// hot a learning rate). The model's parameters are unusable: it would
/// score every sample NaN and silently poison the critic's rankings, so
/// training always throws this; callers (AspectEnsemble) catch it and
/// retry deterministically with a reduced learning rate.
struct TrainingDiverged : std::runtime_error {
  explicit TrainingDiverged(const std::string& what)
      : std::runtime_error(what) {}
};

/// The per-batch buffers of a training loop: batch staging, loss
/// gradient, and the layer activation tape. All fully (re)written every
/// batch, so one workspace is safely reused across models of different
/// shapes — ResizeUninit never shrinks capacity, meaning a workspace
/// that has seen its largest model allocates nothing afterwards.
struct TrainWorkspace {
  Tensor x;
  Tensor grad;
  Sequential::TrainScratch scratch;
};

/// The calling thread's lazily-created workspace, reused across every
/// model this thread trains (TrainStream's jobs route through this).
TrainWorkspace& ThreadTrainWorkspace();

/// One model's slot in a TrainStream batch. The caller owns net,
/// optimizer, and data (all borrowed for the duration of the stream);
/// the stream fills in the outcome fields.
struct TrainJob {
  Sequential* net = nullptr;
  Optimizer* optimizer = nullptr;
  const Tensor* data = nullptr;
  TrainConfig config;
  /// Observes this job's epochs. Called from whichever thread runs the
  /// job — callers that share state across jobs must synchronize.
  std::function<void(const EpochStats&)> on_epoch;

  // Outcome (written by TrainStream):
  std::vector<EpochStats> history;
  bool diverged = false;    // TrainingDiverged was caught for this job
  std::string error;        // its message, when diverged
};

/// Trains every job in `jobs`, fanned out job-per-worker over the
/// shared pool (ParallelFor: inline and in order at one thread or
/// on a pool worker). Each model's parameters are bit-identical to
/// training it alone: a job only ever consumes its own seed-derived
/// streams. Divergence is per-job: a TrainingDiverged job is recorded
/// (diverged/error) and the stream continues; no exception escapes for
/// it. `threads` follows the ResolveThreadCount rule.
void TrainStream(std::vector<TrainJob>& jobs, int threads);

/// Trains `net` to reconstruct `data` (each row one sample) with MSE.
/// Returns per-epoch losses; throws TrainingDiverged on a non-finite
/// epoch loss. `on_epoch` (optional) observes progress. `workspace`
/// (optional) supplies the batch buffers — pass ThreadTrainWorkspace()
/// to reuse them across models on this thread.
std::vector<EpochStats> TrainReconstruction(
    Sequential& net, Optimizer& optimizer, const Tensor& data,
    const TrainConfig& config,
    const std::function<void(const EpochStats&)>& on_epoch = nullptr,
    TrainWorkspace* workspace = nullptr);

/// Per-sample reconstruction error of `data` under `net` (inference
/// mode), evaluated in batches to bound memory. Const and thread-safe
/// on a trained model.
std::vector<float> ReconstructionErrors(const Sequential& net,
                                        const Tensor& data,
                                        std::size_t batch_size = 256);

}  // namespace acobe::nn
