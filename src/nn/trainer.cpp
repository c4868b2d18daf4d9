#include "nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace acobe::nn {

TrainWorkspace& ThreadTrainWorkspace() {
  thread_local TrainWorkspace workspace;
  return workspace;
}

std::vector<EpochStats> TrainReconstruction(
    Sequential& net, Optimizer& optimizer, const Tensor& data,
    const TrainConfig& config,
    const std::function<void(const EpochStats&)>& on_epoch,
    TrainWorkspace* workspace) {
  const std::size_t n = data.rows();
  if (n == 0) {
    throw std::invalid_argument("TrainReconstruction: empty dataset");
  }
  const std::size_t dim = data.cols();
  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  TrainWorkspace owned;
  TrainWorkspace& ws = workspace != nullptr ? *workspace : owned;
  // The batch buffers live in the workspace and are resized in place
  // (ResizeUninit never shrinks capacity), so after the first full-size
  // batch the epoch loop performs no heap allocation.
  Tensor& x = ws.x;
  Tensor& grad = ws.grad;
  optimizer.Attach(net.Params());
  Rng rng(config.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<EpochStats> history;
  history.reserve(static_cast<std::size_t>(std::max(0, config.epochs)));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    acobe::telemetry::TraceSpan epoch_span("nn.train_epoch");
    rng.Shuffle(order);
    // Per-sample accumulation: each batch mean is weighted by its
    // sample count, so a partial final batch does not skew the epoch
    // loss as if it were full.
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t count = std::min(batch, n - start);
      x.ResizeUninit(count, dim);
      for (std::size_t i = 0; i < count; ++i) {
        const float* src = data.data() + order[start + i] * dim;
        std::copy(src, src + dim, x.data() + i * dim);
      }
      net.ZeroGrad();
      const Tensor& pred = net.Forward(x, ws.scratch, /*training=*/true);
      epoch_loss += static_cast<double>(MseLoss(pred, x, grad)) * count;
      net.Backward(grad, ws.scratch, /*need_input_grad=*/false);
      optimizer.Step();
    }
    const EpochStats stats{epoch, static_cast<float>(epoch_loss / n)};
    if (!std::isfinite(stats.loss)) {
      ACOBE_COUNT("nn.train_diverged", 1);
      throw TrainingDiverged("TrainReconstruction: non-finite loss at epoch " +
                             std::to_string(epoch));
    }
    history.push_back(stats);
    ACOBE_COUNT("nn.epochs", 1);
    ACOBE_COUNT("nn.samples_trained", n);
    if (on_epoch) on_epoch(stats);
  }
  return history;
}

void TrainStream(std::vector<TrainJob>& jobs, int threads) {
  if (jobs.empty()) return;
  ACOBE_COUNT("nn.train_stream.jobs", jobs.size());
  // Each job runs start to finish on its worker's thread-local
  // workspace; a TrainingDiverged throw becomes the job's outcome.
  PooledParallelFor(0, static_cast<int>(jobs.size()), threads, [&jobs](int i) {
    TrainJob& job = jobs[static_cast<std::size_t>(i)];
    try {
      job.history =
          TrainReconstruction(*job.net, *job.optimizer, *job.data, job.config,
                              job.on_epoch, &ThreadTrainWorkspace());
    } catch (const TrainingDiverged& e) {
      job.diverged = true;
      job.error = e.what();
    }
  });
}

std::vector<float> ReconstructionErrors(const Sequential& net,
                                        const Tensor& data,
                                        std::size_t batch_size) {
  const std::size_t n = data.rows();
  const std::size_t batch = std::max<std::size_t>(1, batch_size);
  std::vector<float> errors(n);
  Sequential::InferScratch scratch;
  for (std::size_t start = 0; start < n; start += batch) {
    const std::size_t count = std::min(batch, n - start);
    // Score the row block in place: no batch copy, and the per-sample
    // errors are written straight into the result vector.
    const MatSpan block = RowBlock(data, start, count);
    const Tensor& pred = net.Infer(block, scratch);
    PerSampleMse(pred, block, errors.data() + start);
  }
  return errors;
}

}  // namespace acobe::nn
