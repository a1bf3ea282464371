// Layer-level forward/backward semantics (shapes, known values, caching).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/pooling.h"
#include "pruning/structured.h"
#include "tensor/backend.h"
#include "tensor/device.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

// Several pool workers even on small runners, so math_threads 4 really fans
// the live-channel GEMMs out. Runs before anything touches the global pool.
const bool kPoolEnvReady = [] {
  setenv("SUBFEDAVG_THREADS", "4", /*overwrite=*/0);
  return true;
}();

TEST(Conv2d, KnownValueForward) {
  // 1x1 input channel, 3x3 image, 2x2 kernel of ones, zero bias:
  // each output = sum of the 2x2 patch.
  Conv2d conv("c", 1, 1, 2);
  conv.weight().value.fill(1.0f);
  Tensor x({1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(y[3], 5 + 6 + 8 + 9);
}

TEST(Conv2d, BiasBroadcasts) {
  Conv2d conv("c", 1, 2, 1);
  conv.weight().value.fill(0.0f);
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -2.0f;
  Tensor x({1, 1, 2, 2}, 7.0f);
  Tensor y = conv.forward(x, true);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 1.5f);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 0, 0), -2.0f);
}

TEST(Conv2d, StrideAndPadGeometry) {
  Conv2d conv("c", 3, 4, 3, 2, 1);
  Tensor x({2, 3, 8, 8});
  Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 4, 4, 4}));
}

TEST(Conv2d, InputChannelMismatchThrows) {
  Conv2d conv("c", 3, 4, 3);
  Tensor x({1, 2, 8, 8});
  EXPECT_THROW(conv.forward(x, true), CheckError);
}

TEST(Conv2d, BackwardBeforeForwardThrows) {
  Conv2d conv("c", 1, 1, 1);
  Tensor g({1, 1, 1, 1});
  EXPECT_THROW(conv.backward(g), CheckError);
}

TEST(Linear, KnownValueForward) {
  Linear fc("f", 3, 2);
  // W = [[1,2,3],[4,5,6]], b = [10, 20], x = [1,1,1]
  fc.weight().value = Tensor({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  fc.bias().value = Tensor({2}, std::vector<float>{10, 20});
  Tensor x({1, 3}, std::vector<float>{1, 1, 1});
  Tensor y = fc.forward(x, true);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 16.0f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 35.0f);
}

TEST(Linear, BackwardShapesAndGradAccumulation) {
  Linear fc("f", 3, 2);
  Rng rng(1);
  fc.init(rng);
  Tensor x({4, 3});
  x.fill_normal(rng, 0.0f, 1.0f);
  fc.forward(x, true);
  Tensor g({4, 2}, 1.0f);
  Tensor gx = fc.backward(g);
  EXPECT_EQ(gx.shape(), Shape({4, 3}));
  // db = column sums of g = batch size each.
  EXPECT_FLOAT_EQ(fc.bias().grad[0], 4.0f);
  // Second backward accumulates.
  fc.forward(x, true);
  fc.backward(g);
  EXPECT_FLOAT_EQ(fc.bias().grad[0], 8.0f);
}

TEST(ReLU, ForwardZeroesNegatives) {
  ReLU relu;
  Tensor x({1, 4}, std::vector<float>{-1.0f, 0.0f, 2.0f, -0.5f});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardGatesGradient) {
  ReLU relu;
  Tensor x({1, 3}, std::vector<float>{-1.0f, 1.0f, 3.0f});
  relu.forward(x, true);
  Tensor g({1, 3}, std::vector<float>{5.0f, 6.0f, 7.0f});
  Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 6.0f);
  EXPECT_FLOAT_EQ(gx[2], 7.0f);
}

TEST(MaxPool2d, ForwardPicksMaxAndBackwardRoutes) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 4});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  Tensor g({1, 1, 1, 1}, 2.5f);
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 2.5f);  // gradient routed to the argmax only
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool2d, TruncatesOddSpatial) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 5, 5});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x({2, 3, 4, 4});
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 48}));
  Tensor g({2, 48}, 1.0f);
  EXPECT_EQ(flat.backward(g).shape(), x.shape());
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn("bn", 2);
  Rng rng(3);
  Tensor x({8, 2, 4, 4});
  x.fill_normal(rng, 5.0f, 3.0f);
  Tensor y = bn.forward(x, /*train=*/true);

  // Per-channel output mean ~0, var ~1 under γ=1, β=0.
  const std::size_t spatial = 16;
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t n = 0; n < 8; ++n) {
      for (std::size_t s = 0; s < spatial; ++s) mean += y.at4(n, c, s / 4, s % 4);
    }
    mean /= 8 * spatial;
    for (std::size_t n = 0; n < 8; ++n) {
      for (std::size_t s = 0; s < spatial; ++s) {
        const double d = y.at4(n, c, s / 4, s % 4) - mean;
        var += d * d;
      }
    }
    var /= 8 * spatial;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, RunningStatsConvergeTowardBatchStats) {
  BatchNorm2d bn("bn", 1, /*momentum=*/0.5f);
  Tensor x({4, 1, 2, 2}, 10.0f);
  // Constant input: batch mean = 10, var = 0.
  bn.forward(x, true);
  auto buffers = bn.buffers();
  EXPECT_NEAR(buffers[0]->value[0], 5.0f, 1e-5);   // 0.5·0 + 0.5·10
  EXPECT_NEAR(buffers[1]->value[0], 0.5f, 1e-5);   // 0.5·1 + 0.5·0
  bn.forward(x, true);
  EXPECT_NEAR(buffers[0]->value[0], 7.5f, 1e-5);
}

TEST(BatchNorm2d, EvalModeUsesRunningStats) {
  BatchNorm2d bn("bn", 1);
  auto buffers = bn.buffers();
  buffers[0]->value[0] = 2.0f;  // running mean
  buffers[1]->value[0] = 4.0f;  // running var
  Tensor x({1, 1, 1, 2}, std::vector<float>{2.0f, 6.0f});
  Tensor y = bn.forward(x, /*train=*/false);
  EXPECT_NEAR(y[0], 0.0f, 1e-3);
  EXPECT_NEAR(y[1], 2.0f, 1e-3);  // (6-2)/sqrt(4) = 2
}

TEST(BatchNorm2d, BackwardRequiresTrainForward) {
  BatchNorm2d bn("bn", 1);
  Tensor x({1, 1, 2, 2});
  bn.forward(x, /*train=*/false);
  EXPECT_THROW(bn.backward(x), CheckError);
}

TEST(BatchNorm2d, L1PenaltyPushesGammaGradient) {
  BatchNorm2d bn("bn", 1);
  bn.set_l1_gamma(0.1f);
  Tensor x({2, 1, 2, 2});
  Rng rng(5);
  x.fill_normal(rng, 0.0f, 1.0f);
  bn.forward(x, true);
  Tensor g(x.shape());  // zero upstream gradient isolates the penalty
  bn.backward(g);
  EXPECT_NEAR(bn.gamma().grad[0], 0.1f, 1e-6);  // sign(γ=1)·0.1
}

TEST(Softmax, RowsSumToOne) {
  Tensor logits({2, 5});
  Rng rng(6);
  logits.fill_normal(rng, 0.0f, 3.0f);
  Tensor p = softmax(logits);
  for (std::size_t n = 0; n < 2; ++n) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 5; ++c) sum += p.at2(n, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableWithHugeLogits) {
  Tensor logits({1, 3}, std::vector<float>{1000.0f, 1001.0f, 999.0f});
  Tensor p = softmax(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_GT(p[1], p[0]);
}

TEST(CrossEntropy, KnownValue) {
  // Uniform logits over 4 classes → loss = ln 4.
  Tensor logits({1, 4}, 0.0f);
  std::vector<std::int32_t> labels{2};
  const LossResult r = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
  // Gradient = (p − onehot)/N.
  EXPECT_NEAR(r.grad_logits.at2(0, 2), 0.25f - 1.0f, 1e-5);
  EXPECT_NEAR(r.grad_logits.at2(0, 0), 0.25f, 1e-5);
}

TEST(CrossEntropy, CountsCorrectPredictions) {
  Tensor logits({2, 3}, std::vector<float>{5, 0, 0, 0, 0, 5});
  std::vector<std::int32_t> labels{0, 1};
  const LossResult r = softmax_cross_entropy(logits, labels);
  EXPECT_EQ(r.correct, 1u);
}

TEST(CrossEntropy, RejectsBadLabels) {
  Tensor logits({1, 3});
  std::vector<std::int32_t> labels{3};
  EXPECT_THROW(softmax_cross_entropy(logits, labels), CheckError);
}

TEST(ModelZoo, Cnn5ParameterCountMatchesArchitecture) {
  Model m = ModelSpec::cnn5(10).build();
  // conv1: 1·10·25+10, conv2: 10·20·25+20, bn: 2·10+2·20,
  // fc1: 320·50+50, fc2: 50·10+10.
  const std::size_t expected = (250 + 10) + (5000 + 20) + (20 + 40) + (16000 + 50) + (500 + 10);
  EXPECT_EQ(m.num_parameters(), expected);
  EXPECT_EQ(m.topology().conv_blocks.size(), 2u);
  EXPECT_EQ(m.topology().fc_layers.size(), 2u);
}

TEST(ModelZoo, LeNet5ParameterCountMatchesPaper) {
  Model m = ModelSpec::lenet5(10).build();
  // Paper: "62000 total parameters" — exact: 62 006 with BN affine terms.
  const std::size_t expected = (3 * 6 * 25 + 6) + (6 * 16 * 25 + 16) + (12 + 32) +
                               (400 * 120 + 120) + (120 * 84 + 84) + (84 * 10 + 10);
  EXPECT_EQ(m.num_parameters(), expected);
  EXPECT_NEAR(static_cast<double>(m.num_parameters()), 62000.0, 100.0);
}

TEST(ModelZoo, ForwardShapes) {
  Rng rng(7);
  Model cnn = ModelSpec::cnn5(47).build_init(rng);
  Tensor x({3, 1, 28, 28});
  EXPECT_EQ(cnn.forward(x, false).shape(), Shape({3, 47}));

  Model lenet = ModelSpec::lenet5(100).build_init(rng);
  Tensor y({2, 3, 32, 32});
  EXPECT_EQ(lenet.forward(y, false).shape(), Shape({2, 100}));
}

TEST(Model, StateRoundTrip) {
  Rng rng(8);
  Model a = ModelSpec::cnn5(10).build_init(rng);
  Model b = ModelSpec::cnn5(10).build();
  b.load_state(a.state());

  Tensor x({2, 1, 28, 28});
  x.fill_normal(rng, 0.0f, 1.0f);
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(Model, LoadStateValidatesNamesAndShapes) {
  Model a = ModelSpec::cnn5(10).build();
  Model b = ModelSpec::lenet5(10).build();
  EXPECT_THROW(a.load_state(b.state()), CheckError);
}

TEST(Model, StateIncludesBuffers) {
  Model m = ModelSpec::cnn5(10).build();
  const StateDict s = m.state();
  EXPECT_NE(s.find("bn1.running_mean"), nullptr);
  EXPECT_NE(s.find("bn1.gamma"), nullptr);
  EXPECT_NE(s.find("conv2.weight"), nullptr);
  EXPECT_EQ(s.find("nonexistent"), nullptr);
}

TEST(Model, ZeroGradClearsAll) {
  Rng rng(9);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  Tensor x({2, 1, 28, 28});
  x.fill_normal(rng, 0.0f, 1.0f);
  Tensor logits = m.forward(x, true);
  std::vector<std::int32_t> labels{0, 1};
  const LossResult loss = softmax_cross_entropy(logits, labels);
  m.backward(loss.grad_logits);

  double grad_norm = 0.0;
  for (Parameter* p : m.parameters()) grad_norm += p->grad.squared_norm();
  EXPECT_GT(grad_norm, 0.0);
  m.zero_grad();
  for (Parameter* p : m.parameters()) EXPECT_EQ(p->grad.squared_norm(), 0.0);
}

// ---------------------------------------------------------------------------
// Eval forwards keep no backward state: after a train forward, an eval
// forward drops what the train forward cached, so backward fails loudly
// instead of silently reusing it, and the eval output is the train path's.

TEST(EvalForward, BackwardAfterEvalThrowsOnEveryLayer) {
  Rng rng(61);
  auto conv = std::make_unique<Conv2d>("c", 2, 3, 3);
  conv->init(rng);
  auto fc = std::make_unique<Linear>("f", 5, 4);
  fc->init(rng);
  std::vector<std::pair<LayerPtr, Shape>> cases;
  cases.emplace_back(std::move(conv), Shape({2, 2, 6, 6}));
  cases.emplace_back(std::move(fc), Shape({2, 5}));
  cases.emplace_back(std::make_unique<BatchNorm2d>("bn", 2), Shape({2, 2, 4, 4}));
  cases.emplace_back(std::make_unique<ReLU>(), Shape({2, 2, 4, 4}));
  cases.emplace_back(std::make_unique<MaxPool2d>(2), Shape({2, 2, 4, 4}));
  for (auto& [layer, shape] : cases) {
    Tensor x(shape);
    x.fill_normal(rng, 0.0f, 1.0f);
    const Tensor train = layer->forward(x, /*train=*/true);
    const Tensor eval = layer->forward(x, /*train=*/false);
    ASSERT_EQ(train.shape(), eval.shape()) << layer->kind();
    if (layer->kind() != "BatchNorm2d") {  // eval BN uses running statistics
      EXPECT_EQ(std::memcmp(train.data(), eval.data(), train.numel() * sizeof(float)), 0)
          << layer->kind();
    }
    EXPECT_THROW(layer->backward(Tensor(train.shape(), 1.0f)), CheckError) << layer->kind();
  }

  Model model = ModelSpec::cnn5(10).build_init(rng);
  Tensor batch({2, 1, 28, 28});
  batch.fill_normal(rng, 0.0f, 1.0f);
  model.forward(batch, /*train=*/true);
  const Tensor logits = model.forward(batch, /*train=*/false);
  EXPECT_THROW(model.backward(Tensor(logits.shape(), 1.0f)), CheckError);
}

TEST(EvalForward, ConvReturnsItsPatchPanelToTheDevicePool) {
  const Device& dev = get_device("naive");
  Rng rng(62);
  Conv2d conv("c", 3, 2, 5);
  conv.set_device(&dev);
  conv.init(rng);
  Tensor x({4, 3, 64, 64});
  x.fill_normal(rng, 0.0f, 1.0f);
  // The im2col panel: C·K·K rows by N·outH·outW columns, a size class of its
  // own (the layer's other scratch is two rows wide).
  const std::size_t panel = 3 * 5 * 5 * 4 * 60 * 60;
  conv.forward(x, /*train=*/true);   // holds its panel for backward
  conv.forward(x, /*train=*/false);  // hands it back, and its own
  const DeviceStats before = dev.stats();
  const WorkspaceLease lease = dev.lease(panel);
  EXPECT_EQ(dev.stats().workspace_reuses, before.workspace_reuses + 1);
}

// ---------------------------------------------------------------------------
// Live-channel execution: Conv2d computes only channels that can contribute,
// bit-identical both to the full-width computation and to a physically
// narrowed layer holding just the live channels.

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// The full-width conv every Conv2d call must reproduce bit for bit: im2col
/// over every channel and GEMMs at full M/K on the layer's device.
struct FullWidthConv {
  Tensor out, dw, db, dx;
};

FullWidthConv full_width(Conv2d& conv, const Tensor& x, const Tensor& dy) {
  const Device& dev = conv.device();
  const ConvGeometry g{conv.in_channels(), x.shape()[2], x.shape()[3],
                       conv.kernel(),      conv.stride(), conv.pad()};
  const std::size_t batch = x.shape()[0], oc = conv.out_channels(), patch = g.patch_size();
  const std::size_t spatial = g.out_h() * g.out_w(), cols = batch * spatial;
  const std::size_t in_plane = g.in_channels * g.in_h * g.in_w;
  const float* w = conv.weight().value.data();
  std::vector<float> columns(patch * cols), packed(oc * cols), dcols(patch * cols);
  for (std::size_t n = 0; n < batch; ++n) {
    dev.im2col(x.data() + n * in_plane, g, columns.data(), cols, n * spatial);
  }
  FullWidthConv r;
  dev.gemm(GemmOp::kNN, w, columns.data(), packed.data(), oc, patch, cols, false,
           WeightSide::kA, 0, 0);
  r.out = Tensor({batch, oc, g.out_h(), g.out_w()});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t o = 0; o < oc; ++o) {
      const float b = conv.bias().value[o];
      for (std::size_t s = 0; s < spatial; ++s) {
        const float v = packed[o * cols + n * spatial + s];
        r.out.data()[(n * oc + o) * spatial + s] = b == 0.0f ? v : v + b;
      }
    }
  }
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t o = 0; o < oc; ++o) {
      std::memcpy(packed.data() + o * cols + n * spatial, dy.data() + (n * oc + o) * spatial,
                  spatial * sizeof(float));
    }
  }
  r.dw = Tensor(conv.weight().value.shape());
  dev.gemm(GemmOp::kNT, packed.data(), columns.data(), r.dw.data(), oc, cols, patch, true);
  r.db = Tensor({oc});
  for (std::size_t o = 0; o < oc; ++o) {
    float acc = 0.0f;
    for (std::size_t s = 0; s < cols; ++s) acc += packed[o * cols + s];
    r.db.data()[o] += acc;
  }
  dev.gemm(GemmOp::kTN, w, packed.data(), dcols.data(), patch, oc, cols, false,
           WeightSide::kA, 0, 0);
  r.dx = Tensor(x.shape());
  for (std::size_t n = 0; n < batch; ++n) {
    dev.col2im(dcols.data(), g, r.dx.data() + n * in_plane, cols, n * spatial);
  }
  return r;
}

/// Copies planes `chans` of every sample of an [N, C, H, W] tensor.
Tensor gather_planes(const Tensor& x, const std::vector<std::size_t>& chans) {
  const std::size_t batch = x.shape()[0], c_all = x.shape()[1];
  const std::size_t plane = x.shape()[2] * x.shape()[3];
  Tensor out({batch, chans.size(), x.shape()[2], x.shape()[3]});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t j = 0; j < chans.size(); ++j) {
      std::memcpy(out.data() + (n * chans.size() + j) * plane,
                  x.data() + (n * c_all + chans[j]) * plane, plane * sizeof(float));
    }
  }
  return out;
}

struct LiveCase {
  const char* name;
  std::vector<std::size_t> pruned_out;   ///< filters zeroed (and their dY rows)
  std::vector<std::size_t> pruned_in;    ///< weight column blocks zeroed
  std::vector<std::size_t> dead_planes;  ///< input planes zeroed, weights kept
};

void check_live_channels(const LiveCase& lc, const std::string& backend,
                         std::size_t threads) {
  constexpr std::size_t kIn = 8, kOut = 32, kK = 3, kBatch = 8, kHw = 16;
  const std::string label = std::string(lc.name) + " on " + backend + " at math_threads " +
                            std::to_string(threads);
  auto contains = [](const std::vector<std::size_t>& v, std::size_t x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  Rng rng(41);
  Conv2d conv("full", kIn, kOut, kK, /*stride=*/1, /*pad=*/1);
  conv.set_device(&get_device(backend));
  conv.init(rng);
  conv.bias().value.fill_normal(rng, 0.0f, 0.5f);
  float* w = conv.weight().value.data();
  for (std::size_t o = 0; o < kOut; ++o) {
    for (std::size_t c = 0; c < kIn; ++c) {
      if (contains(lc.pruned_out, o) || contains(lc.pruned_in, c)) {
        std::fill_n(w + (o * kIn + c) * kK * kK, kK * kK, 0.0f);
      }
    }
  }
  Tensor x({kBatch, kIn, kHw, kHw});
  x.fill_normal(rng, 0.0f, 1.0f);
  for (std::size_t n = 0; n < kBatch; ++n) {
    for (std::size_t c : lc.dead_planes) {
      std::fill_n(x.data() + (n * kIn + c) * kHw * kHw, kHw * kHw, 0.0f);
    }
  }
  Tensor dy({kBatch, kOut, kHw, kHw});
  dy.fill_normal(rng, 0.0f, 1.0f);
  for (std::size_t n = 0; n < kBatch; ++n) {
    for (std::size_t o : lc.pruned_out) {
      std::fill_n(dy.data() + (n * kOut + o) * kHw * kHw, kHw * kHw, 0.0f);
    }
  }
  // The narrowed layer holds only the live channels.
  std::vector<std::size_t> live_out, live_in;
  for (std::size_t o = 0; o < kOut; ++o) {
    if (!contains(lc.pruned_out, o)) live_out.push_back(o);
  }
  for (std::size_t c = 0; c < kIn; ++c) {
    if (!contains(lc.pruned_in, c) && !contains(lc.dead_planes, c)) live_in.push_back(c);
  }
  Conv2d narrow("narrow", live_in.size(), live_out.size(), kK, 1, 1);
  narrow.set_device(&get_device(backend));
  for (std::size_t j = 0; j < live_out.size(); ++j) {
    const std::size_t o = live_out[j];
    narrow.bias().value[j] = conv.bias().value[o];
    for (std::size_t i = 0; i < live_in.size(); ++i) {
      std::memcpy(narrow.weight().value.data() + (j * live_in.size() + i) * kK * kK,
                  w + (o * kIn + live_in[i]) * kK * kK, kK * kK * sizeof(float));
    }
  }
  const Tensor nx = gather_planes(x, live_in);
  Tensor ndy({kBatch, live_out.size(), kHw, kHw});
  for (std::size_t n = 0; n < kBatch; ++n) {
    for (std::size_t j = 0; j < live_out.size(); ++j) {
      std::memcpy(ndy.data() + (n * live_out.size() + j) * kHw * kHw,
                  dy.data() + (n * kOut + live_out[j]) * kHw * kHw,
                  kHw * kHw * sizeof(float));
    }
  }

  const std::size_t prev_threads = math_threads();
  set_math_threads(threads);
  const FullWidthConv want = full_width(conv, x, dy);
  const Tensor eval = conv.forward(x, /*train=*/false);
  const Tensor out = conv.forward(x, /*train=*/true);
  const Tensor dx = conv.backward(dy);
  const Tensor n_eval = narrow.forward(nx, /*train=*/false);
  const Tensor n_out = narrow.forward(nx, /*train=*/true);
  const Tensor n_dx = narrow.backward(ndy);
  set_math_threads(prev_threads);

  EXPECT_TRUE(same_bits(want.out.data(), out.data(), out.numel())) << label << ": forward";
  EXPECT_TRUE(same_bits(want.out.data(), eval.data(), eval.numel())) << label << ": eval";
  EXPECT_TRUE(same_bits(want.dw.data(), conv.weight().grad.data(), want.dw.numel()))
      << label << ": dW";
  EXPECT_TRUE(same_bits(want.db.data(), conv.bias().grad.data(), kOut)) << label << ": db";
  ASSERT_EQ(dx.shape(), x.shape()) << label;
  EXPECT_TRUE(same_bits(want.dx.data(), dx.data(), dx.numel())) << label << ": dX";

  const std::size_t spatial = kHw * kHw, patch = kIn * kK * kK;
  for (std::size_t n = 0; n < kBatch; ++n) {
    for (std::size_t j = 0; j < live_out.size(); ++j) {
      const std::size_t at = (n * kOut + live_out[j]) * spatial;
      const std::size_t n_at = (n * live_out.size() + j) * spatial;
      EXPECT_TRUE(same_bits(out.data() + at, n_out.data() + n_at, spatial))
          << label << ": forward row " << live_out[j];
      EXPECT_TRUE(same_bits(eval.data() + at, n_eval.data() + n_at, spatial))
          << label << ": eval row " << live_out[j];
    }
    for (std::size_t i = 0; i < live_in.size(); ++i) {
      EXPECT_TRUE(same_bits(dx.data() + (n * kIn + live_in[i]) * spatial,
                            n_dx.data() + (n * live_in.size() + i) * spatial, spatial))
          << label << ": dX plane " << live_in[i];
    }
  }
  for (std::size_t j = 0; j < live_out.size(); ++j) {
    EXPECT_TRUE(same_bits(conv.bias().grad.data() + live_out[j], narrow.bias().grad.data() + j, 1))
        << label << ": db " << live_out[j];
    for (std::size_t i = 0; i < live_in.size(); ++i) {
      EXPECT_TRUE(same_bits(conv.weight().grad.data() + live_out[j] * patch + live_in[i] * kK * kK,
                            narrow.weight().grad.data() + (j * live_in.size() + i) * kK * kK,
                            kK * kK))
          << label << ": dW block " << live_out[j] << "," << live_in[i];
    }
  }
  // A dead plane under live weights still receives its input gradient.
  for (std::size_t c : lc.dead_planes) {
    if (contains(lc.pruned_in, c)) continue;
    double mass = 0.0;
    for (std::size_t s = 0; s < spatial; ++s) mass += std::fabs(dx.data()[c * spatial + s]);
    EXPECT_GT(mass, 0.0) << label << ": dX of dead plane " << c;
  }
}

TEST(LiveChannels, ConvMatchesFullWidthAndNarrowedLayersBitwise) {
  const LiveCase cases[] = {
      {"none pruned", {}, {}, {}},
      {"half pruned", {0, 3, 4, 9, 10, 11, 17, 20, 21, 22, 25, 26, 28, 29, 30, 31}, {1, 4, 5, 6}, {}},
      {"all but one pruned", [] {
         std::vector<std::size_t> v;
         for (std::size_t o = 0; o < 32; ++o) if (o != 13) v.push_back(o);
         return v;
       }(), {0, 1, 2, 4, 5, 6, 7}, {}},
      {"dead planes, live weights", {}, {}, {0, 2, 7}},
      {"pruned and dead mixed", {1, 2, 30}, {3}, {3, 5}},
  };
  for (const LiveCase& lc : cases) {
    for (const char* backend : {"blocked", "sparse", "naive"}) {
      for (std::size_t threads : {1, 4}) check_live_channels(lc, backend, threads);
    }
  }
}

TEST(LiveChannels, DirectConvMatchesExplicitCompositionAtModelZooShapes) {
  // The blocked device runs these stride-1 layers with its direct kernels;
  // full_width is im2col + GEMM on the same device. Train forward, dW, db,
  // dX and eval forwards at the training and evaluation batch sizes must all
  // agree bit for bit, dense and with half the channels pruned.
  struct LayerCase {
    const char* name;
    std::size_t in, out, hw;
    std::vector<std::size_t> pruned_out, dead_in;
  };
  const LayerCase cases[] = {
      {"lenet5 conv1", 3, 6, 32, {}, {}},
      {"lenet5 conv1 half", 3, 6, 32, {1, 3, 4}, {}},
      {"lenet5 conv2", 6, 16, 14, {}, {}},
      {"lenet5 conv2 half", 6, 16, 14, {0, 2, 5, 6, 9, 11, 12, 15}, {1, 3, 4}},
      {"cnn5 conv1", 1, 10, 28, {}, {}},
      {"cnn5 conv2", 10, 20, 12, {}, {}},
  };
  const Device& blocked = get_device("blocked");
  for (const LayerCase& lc : cases) {
    Rng rng(81);
    Conv2d conv("c", lc.in, lc.out, 5);
    conv.set_device(&blocked);
    conv.init(rng);
    conv.bias().value.fill_normal(rng, 0.0f, 0.5f);
    float* w = conv.weight().value.data();
    const std::size_t patch = lc.in * 25;
    for (const std::size_t o : lc.pruned_out) std::fill_n(w + o * patch, patch, 0.0f);
    for (std::size_t o = 0; o < lc.out; ++o) {
      for (const std::size_t c : lc.dead_in) std::fill_n(w + o * patch + c * 25, 25, 0.0f);
    }
    auto input = [&](std::size_t batch) {
      Tensor x({batch, lc.in, lc.hw, lc.hw});
      x.fill_normal(rng, 0.0f, 1.0f);
      for (std::size_t n = 0; n < batch; ++n) {
        for (const std::size_t c : lc.dead_in) {
          std::fill_n(x.data() + (n * lc.in + c) * lc.hw * lc.hw, lc.hw * lc.hw, 0.0f);
        }
      }
      return x;
    };
    const std::size_t ohw = lc.hw - 4;
    const Tensor x = input(10);
    Tensor dy({10, lc.out, ohw, ohw});
    dy.fill_normal(rng, 0.0f, 1.0f);
    for (std::size_t n = 0; n < 10; ++n) {
      for (const std::size_t o : lc.pruned_out) {
        std::fill_n(dy.data() + (n * lc.out + o) * ohw * ohw, ohw * ohw, 0.0f);
      }
    }
    conv.set_needs_input_grad(true);
    const FullWidthConv want = full_width(conv, x, dy);
    const Tensor out = conv.forward(x, /*train=*/true);
    const Tensor dx = conv.backward(dy);
    EXPECT_TRUE(same_bits(want.out.data(), out.data(), out.numel())) << lc.name << ": forward";
    EXPECT_TRUE(same_bits(want.dw.data(), conv.weight().grad.data(), want.dw.numel()))
        << lc.name << ": dW";
    EXPECT_TRUE(same_bits(want.db.data(), conv.bias().grad.data(), lc.out)) << lc.name << ": db";
    EXPECT_TRUE(same_bits(want.dx.data(), dx.data(), dx.numel())) << lc.name << ": dX";

    const Tensor eval_x = input(32);
    const Tensor eval_dy({32, lc.out, ohw, ohw});
    const FullWidthConv eval_want = full_width(conv, eval_x, eval_dy);
    const Tensor eval = conv.forward(eval_x, /*train=*/false);
    EXPECT_TRUE(same_bits(eval_want.out.data(), eval.data(), eval.numel()))
        << lc.name << ": eval forward at batch 32";
  }
}

TEST(LiveChannels, FirstLayerSkipsInputGradWithoutChangingParameterGrads) {
  ModelSpec spec = ModelSpec::lenet5(10);
  Rng init_rng(51);
  Model model = spec.build_init(init_rng);
  EXPECT_FALSE(model.layer(0).needs_input_grad());
  for (std::size_t i = 1; i < model.num_layers(); ++i) {
    EXPECT_TRUE(model.layer(i).needs_input_grad()) << i;
  }
  // Half the channels pruned, as a Sub-FedAvg (Hy) client trains.
  apply_channel_mask(model, derive_channel_mask(model, ChannelMask::ones_like(model), 0.5));

  Rng rng(52);
  Tensor batch({6, spec.in_channels, spec.input_hw, spec.input_hw});
  batch.fill_normal(rng, 0.0f, 1.0f);
  std::vector<std::int32_t> labels = {0, 1, 2, 3, 4, 5};
  auto grads = [&] {
    model.zero_grad();
    model.backward(softmax_cross_entropy(model.forward(batch, /*train=*/true), labels).grad_logits);
    std::vector<Tensor> out;
    for (Parameter* p : model.parameters()) out.push_back(p->grad);
    return out;
  };
  const std::vector<Tensor> skipped = grads();
  model.layer(0).set_needs_input_grad(true);
  const std::vector<Tensor> computed = grads();
  ASSERT_EQ(skipped.size(), computed.size());
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    EXPECT_TRUE(same_bits(skipped[i].data(), computed[i].data(), skipped[i].numel()))
        << model.parameters()[i]->name;
  }

  // The layer itself honours the flag: an empty tensor instead of dX.
  model.layer(0).set_needs_input_grad(false);
  const Tensor y = model.layer(0).forward(batch, /*train=*/true);
  EXPECT_TRUE(model.layer(0).backward(Tensor(y.shape(), 1.0f)).empty());
  model.layer(0).set_needs_input_grad(true);
  model.layer(0).forward(batch, /*train=*/true);
  EXPECT_EQ(model.layer(0).backward(Tensor(y.shape(), 1.0f)).shape(), batch.shape());
}

}  // namespace
}  // namespace subfed
