// Unit tests for src/nn: tensors, GEMM, layers (with numeric gradient
// checks), optimizers, autoencoder construction, training (including
// TrainStream), serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/record.h"
#include "nn/activations.h"
#include "nn/autoencoder.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/gemm.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "nn/trainer.h"

namespace acobe::nn {
namespace {

// --- Tensor ------------------------------------------------------------------

TEST(TensorTest, ConstructionAndIndexing) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t(1, 2), 1.5f);
  t(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(0, 1), 7.0f);
  EXPECT_THROW(t.at(2, 0), std::out_of_range);
  EXPECT_THROW(t.at(0, 3), std::out_of_range);
}

TEST(TensorTest, FromVectorAndReshape) {
  Tensor t = Tensor::FromVector(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t(1, 0), 3.0f);
  t.Reshape(4, 1);
  EXPECT_FLOAT_EQ(t(2, 0), 3.0f);
  EXPECT_THROW(t.Reshape(3, 3), std::invalid_argument);
  EXPECT_THROW(Tensor::FromVector(2, 2, {1.0f}), std::invalid_argument);
}

TEST(TensorTest, RowSpan) {
  Tensor t = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  auto row = t.Row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_FLOAT_EQ(row[0], 4.0f);
}

// --- GEMM --------------------------------------------------------------------

Tensor NaiveMul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  Tensor c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0;
      for (std::size_t l = 0; l < k; ++l) {
        const float av = ta ? a(l, i) : a(i, l);
        const float bv = tb ? b(j, l) : b(l, j);
        acc += av * bv;
      }
      c(i, j) = acc;
    }
  }
  return c;
}

Tensor RandomTensor(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t(r, c);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return t;
}

struct GemmShape {
  std::size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 31 + k * 7 + n);
  const Tensor a = RandomTensor(m, k, rng);
  const Tensor b = RandomTensor(k, n, rng);
  Tensor c;
  Gemm(a, b, c);
  const Tensor ref = NaiveMul(a, b, false, false);
  ASSERT_EQ(c.rows(), m);
  ASSERT_EQ(c.cols(), n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-4f * (k + 1));
  }
}

TEST_P(GemmTest, TransAMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  const Tensor a = RandomTensor(k, m, rng);  // will be transposed
  const Tensor b = RandomTensor(k, n, rng);
  Tensor c;
  GemmTransA(a, b, c);
  const Tensor ref = NaiveMul(a, b, true, false);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-4f * (k + 1));
  }
}

TEST_P(GemmTest, TransBMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 3 + k + n * 5);
  const Tensor a = RandomTensor(m, k, rng);
  const Tensor b = RandomTensor(n, k, rng);  // will be transposed
  Tensor c;
  GemmTransB(a, b, c);
  const Tensor ref = NaiveMul(a, b, false, true);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-4f * (k + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmTest,
                         ::testing::Values(GemmShape{1, 1, 1},
                                           GemmShape{2, 3, 4},
                                           GemmShape{5, 1, 7},
                                           GemmShape{8, 16, 8},
                                           GemmShape{17, 13, 29},
                                           GemmShape{64, 32, 64}));

TEST(GemmTest, ShapeMismatchThrows) {
  Tensor a(2, 3), b(4, 5), c;
  EXPECT_THROW(Gemm(a, b, c), std::invalid_argument);
  EXPECT_THROW(GemmTransA(a, b, c), std::invalid_argument);
  EXPECT_THROW(GemmTransB(a, b, c), std::invalid_argument);
}

// --- Gradient checking -------------------------------------------------------

// Runs a single layer through the out-parameter API, returning the
// output by value for test convenience.
Tensor LForward(Layer& layer, const Tensor& x, bool training) {
  Tensor y;
  layer.Forward(x, y, training);
  return y;
}

// Numerically verifies dL/dx and dL/dparam for a layer under L = sum(y*g)
// with fixed random g (so dL/dy = g).
void CheckGradients(Layer& layer, Tensor x, bool training, float tol = 2e-2f) {
  Rng rng(77);
  Tensor y;
  layer.Forward(x, y, training);
  Tensor g(y.rows(), y.cols());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  for (Param* p : layer.Params()) p->grad.Fill(0.0f);
  Tensor dx;
  layer.Backward(x, y, g, dx, /*need_dx=*/true);

  auto loss_at = [&]() {
    Tensor out;
    layer.Forward(x, out, training);
    double acc = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      acc += static_cast<double>(out.data()[i]) * g.data()[i];
    }
    return acc;
  };

  const float eps = 1e-3f;
  // Input gradient at a few positions.
  for (std::size_t i = 0; i < std::min<std::size_t>(x.size(), 8); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double lp = loss_at();
    x.data()[i] = orig - eps;
    const double lm = loss_at();
    x.data()[i] = orig;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dx.data()[i], numeric, tol * (1.0 + std::fabs(numeric)))
        << "input grad at " << i;
  }
  // Parameter gradients at a few positions.
  // Re-run forward/backward to get fresh parameter grads for unperturbed x.
  for (Param* p : layer.Params()) p->grad.Fill(0.0f);
  layer.Forward(x, y, training);
  layer.Backward(x, y, g, dx, /*need_dx=*/true);
  for (Param* p : layer.Params()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->value.size(), 6);
         ++i) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const double lp = loss_at();
      p->value.data()[i] = orig - eps;
      const double lm = loss_at();
      p->value.data()[i] = orig;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric,
                  tol * (1.0 + std::fabs(numeric)))
          << p->name << " grad at " << i;
    }
  }
}

TEST(DenseTest, ForwardComputesAffine) {
  Dense dense(2, 2);
  dense.Params()[0]->value = Tensor::FromVector(2, 2, {1, 2, 3, 4});  // W
  dense.Params()[1]->value = Tensor::FromVector(1, 2, {0.5f, -0.5f});  // b
  Tensor x = Tensor::FromVector(1, 2, {1, 1});
  Tensor y = LForward(dense, x, true);
  EXPECT_FLOAT_EQ(y(0, 0), 1 + 3 + 0.5f);
  EXPECT_FLOAT_EQ(y(0, 1), 2 + 4 - 0.5f);
}

TEST(DenseTest, GradientsMatchNumeric) {
  Rng rng(11);
  Dense dense(4, 3);
  dense.InitParams(rng);
  CheckGradients(dense, RandomTensor(5, 4, rng), true);
}

TEST(DenseTest, BadShapesThrow) {
  Dense dense(4, 3);
  Tensor x(2, 5);
  Tensor y;
  EXPECT_THROW(dense.Forward(x, y, true), std::invalid_argument);
  EXPECT_THROW(Dense(0, 3), std::invalid_argument);
}

TEST(ReluTest, ForwardZeroesNegatives) {
  ReLU relu;
  Tensor x = Tensor::FromVector(1, 4, {-1, 0, 2, -3});
  Tensor y = LForward(relu, x, true);
  EXPECT_FLOAT_EQ(y(0, 0), 0);
  EXPECT_FLOAT_EQ(y(0, 1), 0);
  EXPECT_FLOAT_EQ(y(0, 2), 2);
  EXPECT_FLOAT_EQ(y(0, 3), 0);
}

TEST(ReluTest, GradientsMatchNumeric) {
  Rng rng(12);
  ReLU relu;
  Tensor x = RandomTensor(4, 6, rng);
  // Nudge values away from the kink at 0 for stable numeric diff.
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x.data()[i]) < 0.05f) x.data()[i] += 0.1f;
  }
  CheckGradients(relu, x, true);
}

TEST(SigmoidTest, ForwardRange) {
  Sigmoid sigmoid;
  Tensor x = Tensor::FromVector(1, 3, {-10, 0, 10});
  Tensor y = LForward(sigmoid, x, true);
  EXPECT_NEAR(y(0, 0), 0.0f, 1e-4);
  EXPECT_FLOAT_EQ(y(0, 1), 0.5f);
  EXPECT_NEAR(y(0, 2), 1.0f, 1e-4);
}

TEST(SigmoidTest, GradientsMatchNumeric) {
  Rng rng(13);
  Sigmoid sigmoid;
  CheckGradients(sigmoid, RandomTensor(3, 5, rng), true);
}

TEST(BatchNormTest, TrainingNormalizesBatch) {
  BatchNorm bn(3);
  Rng rng(14);
  Tensor x = RandomTensor(64, 3, rng);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = x.data()[i] * 3 + 5;
  Tensor y = LForward(bn, x, true);
  for (std::size_t c = 0; c < 3; ++c) {
    double mean = 0, var = 0;
    for (std::size_t r = 0; r < 64; ++r) mean += y(r, c);
    mean /= 64;
    for (std::size_t r = 0; r < 64; ++r) {
      var += (y(r, c) - mean) * (y(r, c) - mean);
    }
    var /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, InferenceUsesRunningStats) {
  BatchNorm bn(2, /*momentum=*/0.0f);  // running stats = last batch stats
  Rng rng(15);
  Tensor x = RandomTensor(128, 2, rng);
  LForward(bn, x, true);
  // A single-row inference must not explode (it uses running stats).
  Tensor one = RandomTensor(1, 2, rng);
  Tensor y = LForward(bn, one, false);
  EXPECT_TRUE(std::isfinite(y(0, 0)));
  EXPECT_TRUE(std::isfinite(y(0, 1)));
}

TEST(BatchNormTest, GradientsMatchNumeric) {
  Rng rng(16);
  BatchNorm bn(4);
  CheckGradients(bn, RandomTensor(8, 4, rng), /*training=*/false);
}

TEST(BatchNormTest, TrainingGradientsMatchNumeric) {
  Rng rng(17);
  BatchNorm bn(3);
  CheckGradients(bn, RandomTensor(6, 3, rng), /*training=*/true, 5e-2f);
}

// --- Sequential & loss --------------------------------------------------------

TEST(SequentialTest, GradCheckThroughStack) {
  Rng rng(18);
  Sequential net;
  net.Add(std::make_unique<Dense>(3, 5));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Dense>(5, 3));
  net.Add(std::make_unique<Sigmoid>());
  net.InitParams(rng);

  Tensor x = RandomTensor(4, 3, rng);
  Tensor y = net.Forward(x, true);
  Tensor target = RandomTensor(4, 3, rng);
  Tensor grad;
  MseLoss(y, target, grad);
  net.ZeroGrad();
  net.Backward(grad);

  // Numeric check on first dense weight.
  Param* w = net.Params()[0];
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < 4; ++i) {
    const float orig = w->value.data()[i];
    Tensor g;
    w->value.data()[i] = orig + eps;
    const float lp = MseLoss(net.Forward(x, true), target, g);
    w->value.data()[i] = orig - eps;
    const float lm = MseLoss(net.Forward(x, true), target, g);
    w->value.data()[i] = orig;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(w->grad.data()[i], numeric, 2e-2 * (1 + std::fabs(numeric)));
  }
}

TEST(MseLossTest, ValueAndGradient) {
  Tensor pred = Tensor::FromVector(1, 2, {1.0f, 3.0f});
  Tensor target = Tensor::FromVector(1, 2, {0.0f, 1.0f});
  Tensor grad;
  const float loss = MseLoss(pred, target, grad);
  EXPECT_FLOAT_EQ(loss, (1.0f + 4.0f) / 2.0f);
  EXPECT_FLOAT_EQ(grad(0, 0), 2.0f * 1.0f / 2.0f);
  EXPECT_FLOAT_EQ(grad(0, 1), 2.0f * 2.0f / 2.0f);
}

TEST(MseLossTest, PerSampleErrors) {
  Tensor pred = Tensor::FromVector(2, 2, {1, 1, 0, 0});
  Tensor target = Tensor::FromVector(2, 2, {0, 0, 0, 2});
  const auto errors = PerSampleMse(pred, target);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_FLOAT_EQ(errors[0], 1.0f);
  EXPECT_FLOAT_EQ(errors[1], 2.0f);
}

// --- Optimizers ----------------------------------------------------------------

TEST(OptimizerTest, StepBeforeAttachThrows) {
  Adam adam;
  EXPECT_THROW(adam.Step(), std::logic_error);
  Adadelta adadelta;
  EXPECT_THROW(adadelta.Step(), std::logic_error);
}

// A quadratic bowl: all optimizers must monotonically-ish reduce loss.
template <typename Opt>
double MinimizeQuadratic(Opt opt, int steps) {
  Param p;
  p.value = Tensor::FromVector(1, 2, {5.0f, -4.0f});
  p.grad = Tensor(1, 2);
  opt.Attach({&p});
  double loss = 0;
  for (int i = 0; i < steps; ++i) {
    loss = 0;
    for (int j = 0; j < 2; ++j) {
      loss += p.value.data()[j] * p.value.data()[j];
      p.grad.data()[j] = 2 * p.value.data()[j];
    }
    opt.Step();
  }
  return loss;
}

TEST(OptimizerTest, AllOptimizersReduceQuadratic) {
  EXPECT_LT(MinimizeQuadratic(Adam(0.1f), 300), 1e-3);
  EXPECT_LT(MinimizeQuadratic(Adadelta(1.0f), 3000), 1.0);
}

// --- Vector kernels vs their scalar formulas -----------------------------------
//
// On an AVX2 host ReLU::Backward and Adam::Step run 8-lane kernels with a
// scalar tail; they must match the scalar formulas bit for bit. Lengths
// 1..33 cover empty and partial vector bodies and every tail length;
// the values cover signed zeros, denormals, infinities and NaN.

std::uint32_t Bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

const float kEdgeValues[] = {0.0f,
                             -0.0f,
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min(),
                             -3e-39f,
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN(),
                             1.5f,
                             -0.75f,
                             3e-4f,
                             -6e4f};
constexpr std::size_t kNumEdgeValues = sizeof(kEdgeValues) / sizeof(float);

// Edge values at staggered positions between Gaussian draws.
Tensor EdgeTensor(std::size_t n, std::size_t salt, Rng& rng) {
  Tensor t(1, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.data()[i] = (i + salt) % 3 == 0
                      ? static_cast<float>(rng.NextGaussian())
                      : kEdgeValues[(i * 5 + salt) % kNumEdgeValues];
  }
  return t;
}

TEST(VectorKernelTest, ReluBackwardMatchesScalarFormulaBitwise) {
  Rng rng(31);
  ReLU relu;
  for (std::size_t n = 1; n <= 33; ++n) {
    for (std::size_t salt = 0; salt < kNumEdgeValues; ++salt) {
      const Tensor y = EdgeTensor(n, salt, rng);
      const Tensor g = EdgeTensor(n, salt + 1, rng);
      Tensor dx;
      relu.Backward(y, y, g, dx, /*need_dx=*/true);
      ASSERT_EQ(dx.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const float want = g.data()[i] * (y.data()[i] > 0.0f ? 1.0f : 0.0f);
        ASSERT_EQ(Bits(dx.data()[i]), Bits(want))
            << "n=" << n << " salt=" << salt << " i=" << i;
      }
    }
  }
}

TEST(VectorKernelTest, AdamStepMatchesScalarFormulaBitwise) {
  Rng rng(32);
  const float lr = 0.01f, b1 = 0.9f, b2 = 0.999f, eps = 1e-7f;
  for (std::size_t n = 1; n <= 33; ++n) {
    for (std::size_t salt = 0; salt < kNumEdgeValues; ++salt) {
      Param p;
      p.value = EdgeTensor(n, salt, rng);
      Adam adam(lr, b1, b2, eps);
      adam.Attach({&p});
      std::vector<float> w(p.value.data(), p.value.data() + n);
      std::vector<float> m(n, 0.0f), v(n, 0.0f);
      // Two steps, so the second starts from non-zero (and non-finite)
      // moments.
      for (int t = 1; t <= 2; ++t) {
        p.grad = EdgeTensor(n, salt + static_cast<std::size_t>(t), rng);
        adam.Step();
        const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
        const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
        for (std::size_t j = 0; j < n; ++j) {
          const float g = p.grad.data()[j];
          m[j] = b1 * m[j] + (1.0f - b1) * g;
          v[j] = b2 * v[j] + (1.0f - b2) * g * g;
          w[j] -= lr * (m[j] / bc1) / (std::sqrt(v[j] / bc2) + eps);
          ASSERT_EQ(Bits(p.value.data()[j]), Bits(w[j]))
              << "n=" << n << " salt=" << salt << " step=" << t
              << " j=" << j;
        }
      }
    }
  }
}

// --- Autoencoder & trainer -----------------------------------------------------

TEST(AutoencoderTest, BuildsSymmetricStack) {
  AutoencoderSpec spec;
  spec.input_dim = 20;
  spec.encoder_dims = {16, 8};
  Sequential net = BuildAutoencoder(spec);
  Rng rng(19);
  net.InitParams(rng);
  Tensor x(3, 20, 0.5f);
  Tensor y = net.Forward(x, false);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 20u);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GE(y.data()[i], 0.0f);  // sigmoid output
    EXPECT_LE(y.data()[i], 1.0f);
  }
}

TEST(AutoencoderTest, InvalidSpecsThrow) {
  AutoencoderSpec spec;
  spec.input_dim = 0;
  EXPECT_THROW(BuildAutoencoder(spec), std::invalid_argument);
  spec.input_dim = 4;
  spec.encoder_dims = {};
  EXPECT_THROW(BuildAutoencoder(spec), std::invalid_argument);
}

TEST(AutoencoderTest, ScaledDimsFloorAtEight) {
  const auto dims = ScaledEncoderDims(8);
  EXPECT_EQ(dims, (std::vector<std::size_t>{64, 32, 16, 8}));
  const auto tiny = ScaledEncoderDims(1000);
  for (std::size_t d : tiny) EXPECT_EQ(d, 8u);
  EXPECT_THROW(ScaledEncoderDims(0), std::invalid_argument);
}

// The fundamental autoencoder property the whole paper rests on:
// reconstruction error is low for training-like data and high for
// out-of-distribution data.
TEST(TrainerTest, AnomalyScoresSeparate) {
  Rng rng(20);
  const std::size_t dim = 12;
  // Normal data: two prototype patterns + small noise.
  Tensor data(256, dim);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const bool pattern = r % 2 == 0;
    for (std::size_t c = 0; c < dim; ++c) {
      const float base = pattern ? (c < dim / 2 ? 0.8f : 0.2f)
                                 : (c < dim / 2 ? 0.2f : 0.8f);
      data(r, c) = base + 0.03f * static_cast<float>(rng.NextGaussian());
    }
  }
  AutoencoderSpec spec;
  spec.input_dim = dim;
  spec.encoder_dims = {16, 4};
  Sequential net = BuildAutoencoder(spec);
  net.InitParams(rng);
  Adadelta opt(1.0f);
  TrainConfig cfg;
  cfg.epochs = 60;
  cfg.batch_size = 32;
  const auto history = TrainReconstruction(net, opt, data, cfg);
  EXPECT_LT(history.back().loss, history.front().loss);

  // Normal-like sample vs inverted (anomalous) sample.
  Tensor probe(2, dim);
  for (std::size_t c = 0; c < dim; ++c) {
    probe(0, c) = c < dim / 2 ? 0.8f : 0.2f;   // in-distribution
    probe(1, c) = c % 2 ? 0.95f : 0.05f;        // out-of-distribution
  }
  const auto errors = ReconstructionErrors(net, probe);
  EXPECT_LT(errors[0], errors[1]);
}

TEST(TrainerTest, DeterministicGivenSeed) {
  auto run = [] {
    Rng rng(21);
    Tensor data = RandomTensor(64, 6, rng);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.data()[i] = std::fabs(data.data()[i]) * 0.2f;
    }
    AutoencoderSpec spec;
    spec.input_dim = 6;
    spec.encoder_dims = {8, 4};
    Sequential net = BuildAutoencoder(spec);
    net.InitParams(rng);
    Adadelta opt;
    TrainConfig cfg;
    cfg.epochs = 5;
    cfg.seed = 7;
    return TrainReconstruction(net, opt, data, cfg).back().loss;
  };
  EXPECT_FLOAT_EQ(run(), run());
}

TEST(TrainerTest, PartialFinalBatchLossIsPerSampleMean) {
  // 5 samples with batch size 2 -> batches of 2, 2 and 1. With a zero
  // learning rate the parameters never move, and without batch-norm the
  // per-sample predictions are independent of batch composition, so the
  // reported epoch loss must equal the whole-dataset MSE. The old
  // per-batch average over-weighted the final single-sample batch.
  Rng rng(33);
  Tensor data = RandomTensor(5, 3, rng);
  AutoencoderSpec spec;
  spec.input_dim = 3;
  spec.encoder_dims = {4};
  spec.batch_norm = false;
  Sequential net = BuildAutoencoder(spec);
  net.InitParams(rng);
  Adam opt(0.0f);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 2;
  const auto history = TrainReconstruction(net, opt, data, cfg);
  ASSERT_EQ(history.size(), 1u);

  Tensor pred = net.Forward(data, /*training=*/false);
  Tensor grad;
  const float expected = MseLoss(pred, data, grad);
  EXPECT_NEAR(history[0].loss, expected, 1e-6f);
}

TEST(SequentialTest, InferMatchesInferenceForward) {
  Rng rng(29);
  AutoencoderSpec spec;
  spec.input_dim = 10;
  spec.encoder_dims = {12, 6};
  Sequential net = BuildAutoencoder(spec);
  net.InitParams(rng);
  // Move batch-norm running statistics off their init values first.
  Tensor data = RandomTensor(32, 10, rng);
  net.Forward(data, true);

  Tensor probe = RandomTensor(4, 10, rng);
  Tensor y1 = net.Forward(probe, /*training=*/false);
  const Sequential& const_net = net;
  Sequential::InferScratch scratch;
  const Tensor& y2 = const_net.Infer(probe, scratch);
  ASSERT_TRUE(y1.SameShape(y2));
  for (std::size_t i = 0; i < y1.size(); ++i) {
    // Bit-identical, not merely close: Infer promises the exact
    // arithmetic of the inference-mode Forward.
    EXPECT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(TrainerTest, EmptyDatasetThrows) {
  Sequential net;
  Adam opt;
  Tensor empty;
  EXPECT_THROW(TrainReconstruction(net, opt, empty, {}), std::invalid_argument);
}

// --- Serialization --------------------------------------------------------------

TEST(SerializeTest, RoundTripReproducesInference) {
  Rng rng(23);
  AutoencoderSpec spec;
  spec.input_dim = 10;
  spec.encoder_dims = {12, 6};
  Sequential net = BuildAutoencoder(spec);
  net.InitParams(rng);
  // Push some data through in training mode so running stats move.
  Tensor data = RandomTensor(32, 10, rng);
  net.Forward(data, true);

  std::stringstream ss;
  SaveAutoencoder(spec, net, ss);
  AutoencoderSpec loaded_spec;
  Sequential loaded = LoadAutoencoder(ss, loaded_spec);
  EXPECT_EQ(loaded_spec.input_dim, spec.input_dim);
  EXPECT_EQ(loaded_spec.encoder_dims, spec.encoder_dims);

  Tensor probe = RandomTensor(4, 10, rng);
  Tensor y1 = net.Forward(probe, false);
  Tensor y2 = loaded.Forward(probe, false);
  ASSERT_TRUE(y1.SameShape(y2));
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(SerializeTest, BadMagicThrows) {
  std::stringstream ss("garbage that is not a model");
  AutoencoderSpec spec;
  EXPECT_THROW(LoadAutoencoder(ss, spec), std::runtime_error);
}

// Runs LoadAutoencoder on `bytes` and returns the error message it
// throws ("" when it loads).
std::string LoadError(const std::string& bytes) {
  std::stringstream in(bytes);
  AutoencoderSpec out;
  try {
    LoadAutoencoder(in, out);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(SerializeTest, LegacyV1PayloadIsRejected) {
  // A v1 file is the v1 magic followed by the raw payload; synthesize
  // one from a current save (16-byte record header + payload + CRC).
  // The v1 loader is gone, so it must fail on the magic, not parse the
  // payload.
  Rng rng(26);
  AutoencoderSpec spec;
  spec.input_dim = 5;
  spec.encoder_dims = {6, 3};
  Sequential net = BuildAutoencoder(spec);
  net.InitParams(rng);
  std::stringstream ss;
  SaveAutoencoder(spec, net, ss);
  const std::string v2 = ss.str();
  const std::uint32_t v1_magic = 0xAC0BE001;
  std::string v1(reinterpret_cast<const char*>(&v1_magic), 4);
  v1 += v2.substr(16, v2.size() - 20);  // the payload
  EXPECT_NE(LoadError(v1).find("bad magic"), std::string::npos)
      << LoadError(v1);
}

TEST(SerializeTest, HostileHeaderRejectedBeforeAllocation) {
  // input_dim = 0xFFFFFFFF must throw "implausible", not attempt a
  // multi-gigabyte BuildAutoencoder. The payload sits in a well-formed
  // autoencoder record with a correct CRC, so it gets past the frame
  // checks and reaches the field bounds check.
  RecordWriter w;
  w.U32(0xFFFFFFFFu);
  w.Floats(std::vector<float>(16, 0.0f));
  std::ostringstream bytes;
  WriteRecord(bytes, "ACAE", 3, w.payload());
  EXPECT_NE(LoadError(bytes.str()).find("implausible input dim"),
            std::string::npos)
      << LoadError(bytes.str());

  // Dims that each pass the cap but whose weights could never fit in
  // the bytes present are refused before BuildAutoencoder sizes them.
  RecordWriter dims;
  dims.U32(1u << 14);  // input dim
  dims.Count(1);
  dims.U32(1u << 14);  // 2 * 2^28 weights, 2 GiB of floats
  dims.U32(0);
  dims.U32(1);
  std::ostringstream wide;
  WriteRecord(wide, "ACAE", 3, dims.payload());
  EXPECT_NE(LoadError(wide.str()).find("implausible layer dims"),
            std::string::npos)
      << LoadError(wide.str());
}

TEST(TrainerTest, NonFiniteLossThrowsTrainingDiverged) {
  Rng rng(27);
  AutoencoderSpec spec;
  spec.input_dim = 4;
  spec.encoder_dims = {4, 2};
  spec.batch_norm = false;
  Sequential net = BuildAutoencoder(spec);
  net.InitParams(rng);
  Tensor data = RandomTensor(16, 4, rng);
  data.data()[5] = std::numeric_limits<float>::quiet_NaN();
  Adam opt(0.01f);
  TrainConfig cfg;
  cfg.epochs = 3;
  EXPECT_THROW(TrainReconstruction(net, opt, data, cfg), TrainingDiverged);
}

// --- TrainStream ---------------------------------------------------------------

Tensor TrainingData(std::uint64_t seed) {
  Rng rng(seed);
  Tensor data(40, 12);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = 0.5f + 0.25f * static_cast<float>(rng.NextGaussian());
  }
  return data;
}

Sequential MakeNet(std::uint64_t init_seed) {
  AutoencoderSpec spec;
  spec.input_dim = 12;
  spec.encoder_dims = {16, 8};
  spec.batch_norm = true;
  spec.sigmoid_output = true;
  Sequential net = BuildAutoencoder(spec);
  Rng init_rng(init_seed);
  net.InitParams(init_rng);
  return net;
}

TrainConfig StreamConfig(std::uint64_t seed) {
  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.batch_size = 16;
  cfg.seed = seed;
  return cfg;
}

void RunStreamParityAt(int threads) {
  const int kJobs = 3;

  // Baseline: each model trained alone through the original API.
  std::vector<std::vector<EpochStats>> solo(kJobs);
  std::vector<std::vector<float>> solo_params(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    Sequential net = MakeNet(100 + j);
    Adadelta opt(1.0f);
    const Tensor data = TrainingData(200 + j);
    solo[j] = TrainReconstruction(net, opt, data, StreamConfig(300 + j));
    for (const Param* p : net.Params()) {
      solo_params[j].insert(solo_params[j].end(), p->value.data(),
                            p->value.data() + p->value.size());
    }
  }

  // The same three models as one stream.
  std::vector<Sequential> nets;
  std::vector<Adadelta> opts;
  std::vector<Tensor> datas;
  nets.reserve(kJobs);
  opts.reserve(kJobs);
  datas.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    nets.push_back(MakeNet(100 + j));
    opts.emplace_back(1.0f);
    datas.push_back(TrainingData(200 + j));
  }
  std::vector<TrainJob> jobs(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    jobs[j].net = &nets[j];
    jobs[j].optimizer = &opts[j];
    jobs[j].data = &datas[j];
    jobs[j].config = StreamConfig(300 + j);
  }
  TrainStream(jobs, threads);

  for (int j = 0; j < kJobs; ++j) {
    EXPECT_FALSE(jobs[j].diverged) << "job " << j;
    ASSERT_EQ(jobs[j].history.size(), solo[j].size()) << "job " << j;
    for (std::size_t e = 0; e < solo[j].size(); ++e) {
      EXPECT_EQ(Bits(jobs[j].history[e].loss), Bits(solo[j][e].loss))
          << "threads=" << threads << " job " << j << " epoch " << e;
    }
    std::vector<float> params;
    for (const Param* p : nets[j].Params()) {
      params.insert(params.end(), p->value.data(),
                    p->value.data() + p->value.size());
    }
    ASSERT_EQ(params.size(), solo_params[j].size()) << "job " << j;
    for (std::size_t i = 0; i < params.size(); ++i) {
      ASSERT_EQ(Bits(params[i]), Bits(solo_params[j][i]))
          << "threads=" << threads << " job " << j << " param " << i;
    }
  }
}

TEST(TrainStreamTest, SerialLoopMatchesSoloTrainingBitwise) {
  RunStreamParityAt(1);
}

TEST(TrainStreamTest, ParallelFanOutMatchesSoloTrainingBitwise) {
  RunStreamParityAt(4);
}

void RunDivergedJobAt(int threads) {
  Sequential good_net = MakeNet(100);
  Sequential bad_net = MakeNet(101);
  Adadelta good_opt(1.0f), bad_opt(1.0f);
  const Tensor good_data = TrainingData(200);
  Tensor bad_data = TrainingData(201);
  bad_data.data()[0] = std::nanf("");  // poisons the first epoch's loss

  std::vector<TrainJob> jobs(2);
  jobs[0].net = &bad_net;
  jobs[0].optimizer = &bad_opt;
  jobs[0].data = &bad_data;
  jobs[0].config = StreamConfig(300);
  jobs[1].net = &good_net;
  jobs[1].optimizer = &good_opt;
  jobs[1].data = &good_data;
  jobs[1].config = StreamConfig(301);
  TrainStream(jobs, threads);

  EXPECT_TRUE(jobs[0].diverged) << "threads=" << threads;
  EXPECT_FALSE(jobs[0].error.empty());
  EXPECT_TRUE(jobs[0].history.empty());
  EXPECT_FALSE(jobs[1].diverged) << "threads=" << threads;
  ASSERT_EQ(jobs[1].history.size(), 5u);
  for (const EpochStats& s : jobs[1].history) {
    EXPECT_TRUE(std::isfinite(s.loss));
  }
}

TEST(TrainStreamTest, DivergedJobIsCapturedWithoutPoisoningTheStream) {
  RunDivergedJobAt(1);
  RunDivergedJobAt(4);
}

}  // namespace
}  // namespace acobe::nn
