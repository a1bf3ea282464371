// Engineering micro-benchmarks (google-benchmark): GEMM/conv throughput per
// device (naive vs blocked, dense and with masked weights), one conv,
// BatchNorm or Linear layer's training step and one conv layer's eval
// forward at model-zoo shapes, mask operations, and the two aggregation
// rules (the DESIGN.md §4.2 counting-vs-strict-intersection ablation at the
// per-op level).
//
// The device GEMM matrix and the layer rows are the perf-trajectory record
// for the kernel layer; CI runs them as
//   ./bench_micro --benchmark_filter='GemmBackend|ConvForward|LayerTrain|LayerEval'
//                 --benchmark_out=BENCH_gemm.json --benchmark_out_format=json
// and uploads BENCH_gemm.json, so regressions show up run over run.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/aggregate.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/model_zoo.h"
#include "pruning/unstructured.h"
#include "tensor/device.h"
#include "util/rng.h"

namespace subfed {
namespace {

const char* const kBackendNames[] = {"naive", "blocked"};

/// A [n×n] matrix with `density_pct`% nonzeros — pruning masks make weights
/// exact zeros.
std::vector<float> masked_matrix(Rng& rng, std::size_t size, int density_pct) {
  std::vector<float> out(size);
  for (auto& x : out) {
    x = rng.bernoulli(density_pct / 100.0) ? static_cast<float>(rng.normal()) : 0.0f;
  }
  return out;
}

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

/// args: {size, device index, weight density %}. items/sec is dense-equiv
/// FLOPs, so "blocked at 20%" reads directly against "blocked at 100%".
void BM_GemmBackend(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Device& device = get_device(kBackendNames[state.range(1)]);
  const int density_pct = static_cast<int>(state.range(2));
  Rng rng(1);
  std::vector<float> a = masked_matrix(rng, n * n, density_pct);
  std::vector<float> b(n * n), c(n * n);
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    device.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), n, n, n, /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(device.name() + "/d" + std::to_string(density_pct));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_GemmBackend)
    // Dense: the naive→blocked headline (acceptance: blocked ≥ 3× at 128³).
    ->Args({128, 0, 100})
    ->Args({128, 1, 100})
    ->Args({256, 0, 100})
    ->Args({256, 1, 100})
    // Masked weights: the blocked kernels do every multiply-add regardless.
    ->Args({128, 1, 20})
    ->Args({256, 1, 10});

void BM_LeNetForward(benchmark::State& state) {
  Rng rng(2);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  Tensor batch({10, 3, 32, 32});
  batch.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = model.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_LeNetForward);

/// args: {device index, weight density %} — whole-model forward on each
/// device.
void BM_ConvForwardBackend(benchmark::State& state) {
  Rng rng(2);
  ModelSpec spec = ModelSpec::lenet5(10);
  spec.backend = kBackendNames[state.range(0)];
  Model model = spec.build_init(rng);
  const int density_pct = static_cast<int>(state.range(1));
  if (density_pct < 100) {
    Rng mask_rng(3);
    for (Parameter* p : model.parameters()) {
      if (!p->prunable) continue;
      for (std::size_t i = 0; i < p->value.numel(); ++i) {
        if (!mask_rng.bernoulli(density_pct / 100.0)) p->value[i] = 0.0f;
      }
    }
  }
  Tensor batch({10, 3, 32, 32});
  batch.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = model.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(std::string(spec.backend) + "/d" + std::to_string(density_pct));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_ConvForwardBackend)
    ->Args({0, 100})
    ->Args({1, 100})
    ->Args({1, 15});

/// One conv layer as a pruned client trains it: 5×5 kernel.
struct ConvLayerCase {
  const char* label;
  std::size_t in_channels, out_channels, hw;
  std::size_t live_in, live_out;  ///< leading channels structured pruning keeps
  double density;                 ///< unstructured weight density
  bool first;                     ///< first layer: no input gradient
};

const ConvLayerCase kConvLayers[] = {
    {"lenet5.conv1/hy", 3, 6, 32, 3, 3, 1.0, true},       // 3 of 6 filters live
    {"lenet5.conv2/hy", 6, 16, 14, 3, 8, 1.0, false},     // half width
    {"cnn5.conv1/un50", 1, 10, 28, 1, 10, 0.5, true},     // 50% unstructured
    {"cnn5.conv2/un50", 10, 20, 12, 10, 20, 0.5, false},  // 50% unstructured
};

constexpr std::size_t kConvKernel = 5;

/// The case's Conv2d on the blocked device, its pruned weights exact zeros.
Conv2d pruned_conv(const ConvLayerCase& lc, Rng& rng) {
  constexpr std::size_t kK2 = kConvKernel * kConvKernel;
  Conv2d conv("conv", lc.in_channels, lc.out_channels, kConvKernel);
  conv.init(rng);
  conv.set_device(&get_device("blocked"));
  conv.set_needs_input_grad(!lc.first);
  float* w = conv.weight().value.data();
  for (std::size_t o = 0; o < lc.out_channels; ++o) {
    for (std::size_t c = 0; c < lc.in_channels; ++c) {
      for (std::size_t t = 0; t < kK2; ++t) {
        const bool live = o < lc.live_out && c < lc.live_in && rng.bernoulli(lc.density);
        if (!live) w[(o * lc.in_channels + c) * kK2 + t] = 0.0f;
      }
    }
  }
  return conv;
}

/// [batch, channels, hw, hw] normal activations whose channels from `live`
/// on are zero planes, as after a channel mask upstream.
Tensor masked_activations(Rng& rng, std::size_t batch, std::size_t channels, std::size_t hw,
                          std::size_t live) {
  Tensor t({batch, channels, hw, hw});
  t.fill_normal(rng, 0.0f, 1.0f);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = live; c < channels; ++c) {
      std::fill_n(t.data() + (n * channels + c) * hw * hw, hw * hw, 0.0f);
    }
  }
  return t;
}

/// args: {case index} — a train-mode forward plus backward of one Conv2d on
/// the blocked device at batch 10. Pruned channels are zero in the weights,
/// the input planes and dY, as after a channel mask; live-channel execution
/// skips them.
void BM_ConvLayerTrain(benchmark::State& state) {
  const ConvLayerCase& lc = kConvLayers[state.range(0)];
  constexpr std::size_t kBatch = 10;
  Rng rng(5);
  Conv2d conv = pruned_conv(lc, rng);
  const std::size_t out_hw = lc.hw - kConvKernel + 1;
  const Tensor input = masked_activations(rng, kBatch, lc.in_channels, lc.hw, lc.live_in);
  const Tensor grad = masked_activations(rng, kBatch, lc.out_channels, out_hw, lc.live_out);
  for (auto _ : state) {
    Tensor out = conv.forward(input, /*train=*/true);
    Tensor grad_input = conv.backward(grad);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(&grad_input);
    benchmark::ClobberMemory();
  }
  state.SetLabel(lc.label);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_ConvLayerTrain)->DenseRange(0, 3);

/// args: {case index} — an eval forward of the same layer at the evaluation
/// batch size (core/eval scores a client's test set 32 images at a time).
void BM_ConvLayerEval(benchmark::State& state) {
  const ConvLayerCase& lc = kConvLayers[state.range(0)];
  constexpr std::size_t kBatch = 32;
  Rng rng(5);
  Conv2d conv = pruned_conv(lc, rng);
  const Tensor input = masked_activations(rng, kBatch, lc.in_channels, lc.hw, lc.live_in);
  for (auto _ : state) {
    Tensor out = conv.forward(input, /*train=*/false);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(lc.label);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_ConvLayerEval)->DenseRange(0, 3);

/// One BatchNorm2d after a conv layer above, at that layer's output shape.
struct BatchNormLayerCase {
  const char* label;
  std::size_t channels, hw, live;  ///< leading channels structured pruning keeps
};

const BatchNormLayerCase kBatchNormLayers[] = {
    {"lenet5.bn1/hy", 6, 28, 3},
    {"lenet5.bn2/hy", 16, 10, 8},
    {"cnn5.bn1", 10, 24, 10},
    {"cnn5.bn2", 20, 8, 20},
};

/// args: {case index} — a train-mode forward plus backward of one
/// BatchNorm2d at batch 10. A masked channel arrives as it does in training:
/// zero input planes, zero dY and γ = β = 0.
void BM_BatchNormLayerTrain(benchmark::State& state) {
  const BatchNormLayerCase& lc = kBatchNormLayers[state.range(0)];
  constexpr std::size_t kBatch = 10;
  Rng rng(6);
  BatchNorm2d bn("bn", lc.channels);
  for (std::size_t c = lc.live; c < lc.channels; ++c) {
    bn.gamma().value[c] = 0.0f;
    bn.beta().value[c] = 0.0f;
  }
  const Tensor input = masked_activations(rng, kBatch, lc.channels, lc.hw, lc.live);
  const Tensor grad = masked_activations(rng, kBatch, lc.channels, lc.hw, lc.live);
  for (auto _ : state) {
    Tensor out = bn.forward(input, /*train=*/true);
    Tensor grad_input = bn.backward(grad);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(grad_input.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(lc.label);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_BatchNormLayerTrain)->DenseRange(0, 3);

/// One fully connected layer of the model zoo.
struct LinearLayerCase {
  const char* label;
  std::size_t in_features, out_features;
  std::size_t live_in;  ///< leading inputs fed by unmasked channels
  double density;       ///< unstructured weight density
};

const LinearLayerCase kLinearLayers[] = {
    {"lenet5.fc1/hy", 400, 120, 200, 1.0},  // half of conv2's channels masked
    {"lenet5.fc2", 120, 84, 120, 1.0},
    {"cnn5.fc1/un50", 320, 50, 320, 0.5},
    {"cnn5.fc2/un50", 50, 10, 50, 0.5},
};

/// args: {case index} — a train-mode forward plus backward of one Linear on
/// the blocked device at batch 10.
void BM_LinearLayerTrain(benchmark::State& state) {
  const LinearLayerCase& lc = kLinearLayers[state.range(0)];
  constexpr std::size_t kBatch = 10;
  Rng rng(7);
  Linear fc("fc", lc.in_features, lc.out_features);
  fc.init(rng);
  fc.set_device(&get_device("blocked"));
  float* w = fc.weight().value.data();
  for (std::size_t o = 0; o < lc.out_features; ++o) {
    for (std::size_t i = 0; i < lc.in_features; ++i) {
      if (i >= lc.live_in || !rng.bernoulli(lc.density)) w[o * lc.in_features + i] = 0.0f;
    }
  }
  Tensor input({kBatch, lc.in_features});
  input.fill_normal(rng, 0.0f, 1.0f);
  for (std::size_t n = 0; n < kBatch; ++n) {
    std::fill(input.data() + n * lc.in_features + lc.live_in,
              input.data() + (n + 1) * lc.in_features, 0.0f);
  }
  Tensor grad({kBatch, lc.out_features});
  grad.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = fc.forward(input, /*train=*/true);
    Tensor grad_input = fc.backward(grad);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(grad_input.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(lc.label);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_LinearLayerTrain)->DenseRange(0, 3);

void BM_MagnitudeMaskDerivation(benchmark::State& state) {
  Rng rng(3);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(model, MaskScope::kAllPrunable);
  for (auto _ : state) {
    ModelMask next = derive_magnitude_mask(model, mask, 0.5);
    benchmark::DoNotOptimize(&next);
  }
}
BENCHMARK(BM_MagnitudeMaskDerivation);

void BM_SubFedAvgAggregate(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  const StateDict global = model.state();

  std::vector<ClientUpdate> updates(clients);
  for (std::size_t k = 0; k < clients; ++k) {
    Rng crng = rng.split("client", k);
    Model m = ModelSpec::lenet5(10).build_init(crng);
    ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
    mask = derive_magnitude_mask(m, mask, 0.5);
    updates[k] = {m.state(), mask, 500};
  }
  const bool strict = state.range(1) != 0;
  for (auto _ : state) {
    StateDict out = strict ? sub_fedavg_aggregate_strict(updates, global)
                           : sub_fedavg_aggregate(updates, global);
    benchmark::DoNotOptimize(&out);
  }
}
BENCHMARK(BM_SubFedAvgAggregate)
    ->Args({5, 0})
    ->Args({10, 0})
    ->Args({10, 1});

}  // namespace
}  // namespace subfed

BENCHMARK_MAIN();
