// Micro-benchmarks of the neural-network substrate: GEMM kernels
// (blocked vs scalar reference), layer-shaped sweeps, full autoencoder
// training steps and epochs.
//
// Beyond the standard google-benchmark console output, `--metrics-out=F`
// writes an acobe.metrics.v1 JSON file with one gauge per benchmark
// ("bench.<name>.items_per_second"); bench/BENCH_nn.json is a checked-in
// run of this on the reference machine, and tools/check_bench.py gates
// CI on the blocked/reference speedup ratios derived from it (ratios,
// unlike absolute GFLOP/s, transfer across machines).

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "nn/autoencoder.h"
#include "nn/gemm.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

using namespace acobe;
using namespace acobe::nn;

namespace {

Tensor RandomTensor(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t(r, c);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return t;
}

// --- Square GEMM (historic shapes, comparable to pre-refactor runs) ---------

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Rng rng(1);
  const Tensor a = RandomTensor(n, n, rng);
  const Tensor b = RandomTensor(n, n, rng);
  Tensor c;
  for (auto _ : state) {
    Gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmRef(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Rng rng(1);
  const Tensor a = RandomTensor(n, n, rng);
  const Tensor b = RandomTensor(n, n, rng);
  Tensor c;
  for (auto _ : state) {
    reference::Gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmRef)->Arg(64)->Arg(128)->Arg(256);

// --- Layer-shaped sweeps ----------------------------------------------------
//
// (batch, in, out) triples taken from the autoencoder stacks the
// pipeline actually trains: divisor-8 widths {64, 32, 16, 8} over
// normalized-day inputs (dim 112/392) at batch sizes 32-256.

void GemmLayerArgs(benchmark::internal::Benchmark* b) {
  b->Args({32, 112, 64})
      ->Args({64, 112, 64})
      ->Args({64, 64, 32})
      ->Args({64, 32, 16})
      ->Args({64, 16, 8})
      ->Args({128, 64, 32})
      ->Args({256, 128, 64})
      ->Args({256, 8, 128});
}

void BM_GemmLayer(benchmark::State& state) {
  const std::size_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(6);
  const Tensor a = RandomTensor(m, k, rng);
  const Tensor b = RandomTensor(k, n, rng);
  const Tensor bias = RandomTensor(1, n, rng);
  Tensor c;
  for (auto _ : state) {
    Gemm(a, b, c, bias.data());  // fused bias: the Dense forward path
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmLayer)->Apply(GemmLayerArgs);

void BM_GemmTransA(benchmark::State& state) {
  const std::size_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(2);
  // Weight-gradient shape: x^T g with x (k x m), g (k x n).
  const Tensor a = RandomTensor(k, m, rng);
  const Tensor b = RandomTensor(k, n, rng);
  Tensor c;
  for (auto _ : state) {
    GemmTransA(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmTransA)
    ->Args({128, 128, 128})
    ->Args({112, 64, 64})
    ->Args({64, 128, 32});

void BM_GemmTransB(benchmark::State& state) {
  const std::size_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(7);
  // Input-gradient shape: g W^T with g (m x k), W (n x k).
  const Tensor a = RandomTensor(m, k, rng);
  const Tensor b = RandomTensor(n, k, rng);
  Tensor c;
  for (auto _ : state) {
    GemmTransB(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmTransB)
    ->Args({64, 64, 112})
    ->Args({128, 32, 64})
    ->Args({256, 64, 128});

// --- Whole-model paths ------------------------------------------------------

void BM_AutoencoderForward(benchmark::State& state) {
  const std::size_t input_dim = state.range(0);
  Rng rng(3);
  AutoencoderSpec spec;
  spec.input_dim = input_dim;
  spec.encoder_dims = ScaledEncoderDims(8);
  Sequential net = BuildAutoencoder(spec);
  net.InitParams(rng);
  const Tensor batch = RandomTensor(64, input_dim, rng);
  Sequential::InferScratch scratch;
  for (auto _ : state) {
    const Tensor& y = net.Infer(batch, scratch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AutoencoderForward)->Arg(112)->Arg(392)->Arg(896);

void BM_AutoencoderTrainStep(benchmark::State& state) {
  const std::size_t input_dim = state.range(0);
  Rng rng(4);
  AutoencoderSpec spec;
  spec.input_dim = input_dim;
  spec.encoder_dims = ScaledEncoderDims(8);
  Sequential net = BuildAutoencoder(spec);
  net.InitParams(rng);
  Adam opt;  // the tools' optimizer
  opt.Attach(net.Params());
  const Tensor batch = RandomTensor(64, input_dim, rng);
  Tensor grad;
  Sequential::TrainScratch scratch;
  for (auto _ : state) {
    net.ZeroGrad();
    const Tensor& pred = net.Forward(batch, scratch, /*training=*/true);
    MseLoss(pred, batch, grad);
    net.Backward(grad, scratch, /*need_input_grad=*/false);
    opt.Step();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AutoencoderTrainStep)->Arg(112)->Arg(392);

void BM_TrainEpoch(benchmark::State& state) {
  const std::size_t input_dim = state.range(0);
  Rng rng(8);
  AutoencoderSpec spec;
  spec.input_dim = input_dim;
  spec.encoder_dims = ScaledEncoderDims(8);
  Sequential net = BuildAutoencoder(spec);
  net.InitParams(rng);
  Adam opt;
  const Tensor data = RandomTensor(512, input_dim, rng);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 64;
  for (auto _ : state) {
    const auto history = TrainReconstruction(net, opt, data, cfg);
    benchmark::DoNotOptimize(history.data());
  }
  state.SetItemsProcessed(state.iterations() * data.rows());
}
BENCHMARK(BM_TrainEpoch)->Arg(112)->Arg(392);

// --- Ensemble training stream -----------------------------------------------
//
// The ensemble's training pattern: kStreamJobs independent autoencoders
// over their own data. BM_TrainStreamSolo is the pre-stream shape — N
// cold TrainReconstruction calls, each with its own workspace.
// BM_TrainStreamFused is the TrainStream path (per-thread reused
// workspaces, warm pool; /1 is a plain loop over the jobs, /4 fans them
// over four workers). The in-run /4-over-solo ratio is what
// check_bench.py gates on multi-core machines.

constexpr int kStreamJobs = 4;

struct StreamFixture {
  std::vector<Sequential> nets;
  std::vector<Adadelta> opts;
  std::vector<Tensor> datas;
  TrainConfig cfg;

  explicit StreamFixture(std::size_t input_dim) {
    Rng rng(10);
    AutoencoderSpec spec;
    spec.input_dim = input_dim;
    spec.encoder_dims = ScaledEncoderDims(8);
    nets.reserve(kStreamJobs);
    opts.reserve(kStreamJobs);
    datas.reserve(kStreamJobs);
    for (int j = 0; j < kStreamJobs; ++j) {
      nets.push_back(BuildAutoencoder(spec));
      nets.back().InitParams(rng);
      opts.emplace_back();
      datas.push_back(RandomTensor(512, input_dim, rng));
    }
    cfg.epochs = 1;
    cfg.batch_size = 64;
  }
};

void BM_TrainStreamSolo(benchmark::State& state) {
  StreamFixture fx(state.range(0));
  for (auto _ : state) {
    for (int j = 0; j < kStreamJobs; ++j) {
      const auto history =
          TrainReconstruction(fx.nets[j], fx.opts[j], fx.datas[j], fx.cfg);
      benchmark::DoNotOptimize(history.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kStreamJobs * 512);
}
BENCHMARK(BM_TrainStreamSolo)->Arg(112)->UseRealTime();

void BM_TrainStreamFused(benchmark::State& state) {
  StreamFixture fx(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    std::vector<TrainJob> jobs(kStreamJobs);
    for (int j = 0; j < kStreamJobs; ++j) {
      jobs[j].net = &fx.nets[j];
      jobs[j].optimizer = &fx.opts[j];
      jobs[j].data = &fx.datas[j];
      jobs[j].config = fx.cfg;
    }
    TrainStream(jobs, threads);
    benchmark::DoNotOptimize(jobs.data());
  }
  state.SetItemsProcessed(state.iterations() * kStreamJobs * 512);
}
BENCHMARK(BM_TrainStreamFused)
    ->Args({112, 1})
    ->Args({112, 4})
    ->UseRealTime();

void BM_OptimizerStep(benchmark::State& state) {
  Rng rng(5);
  Param p;
  p.value = RandomTensor(512, 256, rng);
  p.grad = RandomTensor(512, 256, rng);
  Adam opt;  // the tools' optimizer
  opt.Attach({&p});
  for (auto _ : state) {
    opt.Step();
    benchmark::DoNotOptimize(p.value.data());
  }
  state.SetItemsProcessed(state.iterations() * p.value.size());
}
BENCHMARK(BM_OptimizerStep);

// --- Metrics export ---------------------------------------------------------

// Console reporter that additionally records each benchmark's
// items_per_second into a telemetry gauge, so --metrics-out can emit
// the standard acobe.metrics.v1 JSON used by BENCH_* baselines. With
// --benchmark_repetitions above 1 only the median aggregate is
// recorded, under the unsuffixed benchmark name, so the gauge keys are
// the same with and without repetitions.
class GaugeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const bool recorded =
          run.repetitions > 1 ? run.run_type == Run::RT_Aggregate &&
                                    run.aggregate_name == "median"
                              : run.run_type == Run::RT_Iteration;
      const auto it = run.counters.find("items_per_second");
      if (recorded && it != run.counters.end()) {
        telemetry::GetGauge("bench." + run.run_name.str() +
                            ".items_per_second")
            .Set(static_cast<double>(it->second));
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  GaugeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // Machine context the gate needs: the fused-stream speedup is only
  // meaningful when the hardware can actually run the workers
  // concurrently, so check_bench.py reads bench.hw_threads to decide
  // whether to apply that floor, and refuses to compare a run against a
  // baseline recorded with a different count.
  telemetry::GetGauge("bench.hw_threads")
      .Set(static_cast<double>(std::thread::hardware_concurrency()));
  if (!metrics_out.empty() && !telemetry::WriteMetricsJsonFile(metrics_out)) {
    std::fprintf(stderr, "micro_nn: cannot write %s\n", metrics_out.c_str());
    return 1;
  }
  return 0;
}
