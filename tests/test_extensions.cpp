// Extension features: Dirichlet partitioning, the deeper CnnDeep model,
// federation checkpointing, quantized updates, client dropout, and per-layer
// sparsity reports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "comm/channel.h"
#include "comm/quantize.h"
#include "data/client_data.h"
#include "fl/checkpoint.h"
#include "nn/batchnorm.h"
#include "fl/driver.h"
#include "fl/standalone.h"
#include "fl/subfedavg.h"
#include "metrics/sparsity.h"
#include "pruning/structured.h"
#include "pruning/unstructured.h"
#include "util/check.h"
#include "util/logging.h"

namespace subfed {
namespace {

// ---------------- Dirichlet partitioner -------------------------------------

TEST(DirichletPartition, BudgetAndCoverage) {
  PartitionConfig config{/*clients=*/10, /*shards=*/2, /*shard_size=*/30,
                         PartitionKind::kDirichlet, /*alpha=*/0.5};
  ShardPartitioner part(DatasetSpec::mnist(), config, Rng(3));
  std::set<std::pair<std::int32_t, std::uint32_t>> seen;
  for (std::size_t k = 0; k < part.num_clients(); ++k) {
    EXPECT_EQ(part.client(k).examples.size(), 60u);  // same budget as shards
    for (const ExampleRef& ref : part.client(k).examples) {
      EXPECT_TRUE(seen.insert({ref.label, ref.index}).second) << "duplicate example";
    }
  }
}

TEST(DirichletPartition, AlphaControlsHeterogeneity) {
  // Small α → few labels per client; large α → near-uniform label mixtures.
  auto mean_labels = [](double alpha) {
    PartitionConfig config{/*clients=*/20, 2, 50, PartitionKind::kDirichlet, alpha};
    ShardPartitioner part(DatasetSpec::mnist(), config, Rng(7));
    double total = 0.0;
    for (std::size_t k = 0; k < part.num_clients(); ++k) {
      total += static_cast<double>(part.client(k).labels_present.size());
    }
    return total / static_cast<double>(part.num_clients());
  };
  const double concentrated = mean_labels(0.05);
  const double spread = mean_labels(100.0);
  EXPECT_LT(concentrated, spread);
  EXPECT_GE(spread, 9.0);  // α=100 ≈ uniform over 10 classes
  EXPECT_LE(concentrated, 4.0);
}

TEST(DirichletPartition, RejectsBadAlpha) {
  PartitionConfig config{5, 2, 10, PartitionKind::kDirichlet, 0.0};
  EXPECT_THROW(ShardPartitioner(DatasetSpec::mnist(), config, Rng(1)), CheckError);
}

TEST(DirichletPartition, WorksEndToEndWithFederatedData) {
  FederatedDataConfig config;
  config.partition = {4, 2, 20, PartitionKind::kDirichlet, 0.3};
  config.test_per_class = 4;
  config.seed = 9;
  FederatedData data(DatasetSpec::mnist(), config);
  for (std::size_t k = 0; k < data.num_clients(); ++k) {
    EXPECT_EQ(data.client(k).train_labels.size() + data.client(k).val_labels.size(), 40u);
    EXPECT_FALSE(data.client(k).labels_present.empty());
  }
}

// ---------------- CnnDeep ----------------------------------------------------

TEST(CnnDeep, TopologyAndForwardShape) {
  Rng rng(1);
  Model m = ModelSpec::cnn_deep(10).build_init(rng);
  EXPECT_EQ(m.topology().conv_blocks.size(), 4u);
  EXPECT_EQ(m.topology().fc_layers.size(), 2u);
  Tensor x({2, 3, 32, 32});
  x.fill_normal(rng, 0.0f, 1.0f);
  EXPECT_EQ(m.forward(x, false).shape(), Shape({2, 10}));
}

TEST(CnnDeep, ChannelMaskPropagatesThroughConvChain) {
  Rng rng(2);
  Model m = ModelSpec::cnn_deep(10).build_init(rng);
  ChannelMask mask = ChannelMask::ones_like(m);
  EXPECT_EQ(mask.total_channels(), 16u + 16 + 32 + 32);

  // Prune a middle block's channel: both its filters and the NEXT conv's
  // input planes must be masked.
  mask.block(1)[3] = 0;
  ModelMask expanded = mask.to_model_mask(m);
  const Tensor& w3 = *expanded.find("conv3.weight");
  const std::size_t k2 = 9, in_stride = 16 * k2;
  for (std::size_t f = 0; f < 32; ++f) {
    for (std::size_t i = 0; i < k2; ++i) EXPECT_EQ(w3[f * in_stride + 3 * k2 + i], 0.0f);
  }
  // Last block's channel feeds fc1 columns.
  mask.block(3)[7] = 0;
  expanded = mask.to_model_mask(m);
  const Tensor& fc1 = *expanded.find("fc1.weight");
  const std::size_t spatial = 8 * 8, in_features = 32 * spatial;
  for (std::size_t s = 0; s < spatial; ++s) {
    EXPECT_EQ(fc1[0 * in_features + 7 * spatial + s], 0.0f);
  }
}

TEST(CnnDeep, PrunedChannelIsDeadFunctionally) {
  Rng rng(3);
  Model m = ModelSpec::cnn_deep(10).build_init(rng);
  ChannelMask mask = ChannelMask::ones_like(m);
  mask.block(0)[0] = 0;
  mask.block(2)[5] = 0;
  apply_channel_mask(m, mask);

  Tensor x({1, 3, 32, 32});
  x.fill_normal(rng, 0.0f, 1.0f);
  const Tensor before = m.forward(x, false);
  // Corrupt running stats of the dead channels; output must not move.
  m.topology().conv_blocks[0].bn->buffers()[0]->value[0] = 99.0f;
  m.topology().conv_blocks[2].bn->buffers()[1]->value[5] = 42.0f;
  const Tensor after = m.forward(x, false);
  for (std::size_t i = 0; i < before.numel(); ++i) EXPECT_FLOAT_EQ(before[i], after[i]);
}

TEST(CnnDeep, StructuredPruningDeeperGivesLargerFlopCut) {
  // §3.3: channel pruning pays off more on deeper nets. At the same 50%
  // channel rate, CnnDeep (conv→conv chains everywhere) loses more FLOPs
  // than LeNet-5 (whose conv1 input is fixed by the image).
  Rng rng(4);
  auto speedup_at_half = [&](ModelSpec spec) {
    Model m = spec.build_init(rng);
    ChannelMask mask = ChannelMask::ones_like(m);
    for (std::size_t b = 0; b < mask.num_blocks(); ++b) {
      for (std::size_t c = 0; c < mask.block(b).size() / 2; ++c) mask.block(b)[c] = 0;
    }
    return static_cast<double>(dense_conv_flops(m)) /
           static_cast<double>(pruned_conv_flops(m, mask));
  };
  const double lenet = speedup_at_half(ModelSpec::lenet5(10));
  const double deep = speedup_at_half(ModelSpec::cnn_deep(10));
  EXPECT_GT(deep, lenet);
  EXPECT_GT(deep, 3.0);  // mostly in-and-out halved ⇒ ~4×
}

// ---------------- Checkpointing ----------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedData& data() {
    static FederatedData instance(DatasetSpec::mnist(), [] {
      FederatedDataConfig config;
      config.partition = {4, 2, 25};
      config.test_per_class = 6;
      config.seed = 77;
      return config;
    }());
    return instance;
  }

  static FlContext ctx() {
    FlContext c;
    c.data = &data();
    c.spec = ModelSpec::cnn5(10);
    c.train = {2, 10};
    c.seed = 77;
    return c;
  }

  static SubFedAvgConfig config() {
    SubFedAvgConfig c;
    c.unstructured = {0.0, 0.5, 0.0, 0.25};
    return c;
  }
};

TEST_F(CheckpointTest, SaveLoadRoundTripsExactly) {
  const std::string path = ::testing::TempDir() + "/subfed_ckpt.bin";

  SubFedAvg original(ctx(), config());
  DriverConfig driver{/*rounds=*/3, /*sample_rate=*/0.75, 0, 77};
  run_federation(original, driver);
  save_checkpoint(original, path);

  SubFedAvg restored(ctx(), config());
  load_checkpoint(restored, path);

  // Server and every client identical.
  for (std::size_t e = 0; e < original.global_state().size(); ++e) {
    EXPECT_EQ(original.global_state()[e].second, restored.global_state()[e].second);
  }
  for (std::size_t k = 0; k < original.num_clients(); ++k) {
    EXPECT_EQ(ModelMask::hamming_distance(original.client(k).weight_mask(),
                                          restored.client(k).weight_mask()),
              0.0);
    EXPECT_EQ(ChannelMask::hamming_distance(original.client(k).channel_mask(),
                                            restored.client(k).channel_mask()),
              0.0);
    EXPECT_DOUBLE_EQ(original.client(k).unstructured_pruned(),
                     restored.client(k).unstructured_pruned());
    EXPECT_DOUBLE_EQ(original.client(k).structured_pruned(),
                     restored.client(k).structured_pruned());
    EXPECT_EQ(original.client_test_accuracy(k), restored.client_test_accuracy(k));
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ResumedRunContinuesLikeUninterrupted) {
  const std::string path = ::testing::TempDir() + "/subfed_resume.bin";

  // Uninterrupted: 4 rounds.
  SubFedAvg full(ctx(), config());
  Rng sampler_a = Rng(123).split("s");
  for (std::size_t r = 0; r < 4; ++r) {
    full.run_round(r, sampler_a.sample_without_replacement(4, 3));
  }

  // Interrupted: 2 rounds, checkpoint, reload, 2 more with the same sampler
  // sequence.
  SubFedAvg part1(ctx(), config());
  Rng sampler_b = Rng(123).split("s");
  for (std::size_t r = 0; r < 2; ++r) {
    part1.run_round(r, sampler_b.sample_without_replacement(4, 3));
  }
  save_checkpoint(part1, path);

  SubFedAvg part2(ctx(), config());
  load_checkpoint(part2, path);
  for (std::size_t r = 2; r < 4; ++r) {
    part2.run_round(r, sampler_b.sample_without_replacement(4, 3));
  }

  for (std::size_t e = 0; e < full.global_state().size(); ++e) {
    EXPECT_EQ(full.global_state()[e].second, part2.global_state()[e].second)
        << full.global_state()[e].first;
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, RejectsWrongFederationSize) {
  const std::string path = ::testing::TempDir() + "/subfed_badsize.bin";
  SubFedAvg original(ctx(), config());
  save_checkpoint(original, path);

  static FederatedData other(DatasetSpec::mnist(), [] {
    FederatedDataConfig config;
    config.partition = {6, 2, 25};
    config.seed = 78;
    return config;
  }());
  FlContext other_ctx = ctx();
  other_ctx.data = &other;
  SubFedAvg mismatched(other_ctx, config());
  EXPECT_THROW(load_checkpoint(mismatched, path), CheckError);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, RejectsClientSectionsThatDoNotMatchTheArchitecture) {
  SubFedAvg alg(ctx(), config());
  const std::vector<StateDict> good = alg.checkpoint_state();
  const StateDict global = alg.global_state();
  // Client 2's personal model, weight mask and channel mask, one at a time,
  // with every entry reshaped: refused from a checkpoint and from a remote
  // exchange's side-band mirror alike.
  for (std::size_t s = 1 + 3 * 2; s < 1 + 3 * 3; ++s) {
    StateDict reshaped;
    for (const auto& [name, tensor] : good[s]) {
      reshaped.add(name, Tensor(Shape{tensor.numel() + 1}));
    }
    std::vector<StateDict> bad = good;
    bad[s] = reshaped;
    EXPECT_THROW(alg.restore_checkpoint_state(bad), CheckError) << "section " << s;

    ClientJob job{2, &global, nullptr, 1, {bad.begin() + 7, bad.begin() + 10}};
    EXPECT_THROW(alg.run_client(0, job, global, /*detached=*/true), CheckError)
        << "section " << s;
  }
  // Nothing was stored: the federation still checkpoints as before.
  EXPECT_EQ(encode_state_sections(alg.name(), alg.checkpoint_state()),
            encode_state_sections(alg.name(), good));
}

TEST_F(CheckpointTest, RejectsMissingAndCorruptFiles) {
  SubFedAvg alg(ctx(), config());
  EXPECT_THROW(load_checkpoint(alg, "/nonexistent/ckpt.bin"), CheckError);

  const std::string path = ::testing::TempDir() + "/subfed_corrupt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_THROW(load_checkpoint(alg, path), CheckError);

  // SFCG containers claiming 2^32-1 sections (17 bytes with an empty name):
  // rejected before the section vector is sized, not std::bad_alloc.
  auto claiming_sections = [](const std::string& name) {
    std::vector<std::uint8_t> bytes{0x47, 0x43, 0x46, 0x53,  // "SFCG"
                                    1, 0, 0, 0,              // version
                                    static_cast<std::uint8_t>(name.size()), 0, 0, 0};
    for (const char c : name) bytes.push_back(static_cast<std::uint8_t>(c));
    bytes.insert(bytes.end(), {0xFF, 0xFF, 0xFF, 0xFF, 0});
    return bytes;
  };
  EXPECT_THROW(decode_state_sections(claiming_sections(""), ""), CheckError);
  const std::vector<std::uint8_t> huge = claiming_sections(alg.name());
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(huge.data(), 1, huge.size(), f);
  std::fclose(f);
  EXPECT_THROW(load_checkpoint(alg, path), CheckError);
  std::remove(path.c_str());
}

// ---------------- Quantization ------------------------------------------------

TEST(Fp16, KnownValuesRoundTrip) {
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.25f, 65504.0f}) {
    EXPECT_EQ(fp16_to_fp32(fp32_to_fp16(v)), v) << v;
  }
  // Subnormal half.
  const float tiny = 6.1e-5f;
  EXPECT_NEAR(fp16_to_fp32(fp32_to_fp16(tiny)), tiny, 1e-6f);
  // Overflow saturates to inf.
  EXPECT_TRUE(std::isinf(fp16_to_fp32(fp32_to_fp16(1e6f))));
}

TEST(Fp16, RelativeErrorBounded) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, 2.0));
    const float back = fp16_to_fp32(fp32_to_fp16(v));
    EXPECT_NEAR(back, v, std::max(1e-3f, std::fabs(v) * 1e-3f));
  }
}

TEST(Quantize, RejectsCorruptBuffers) {
  Rng rng(9);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  std::vector<std::uint8_t> bytes = encode_payload(m.state(), nullptr, QuantCodec::kFp16);
  bytes[0] ^= 0xFF;
  EXPECT_THROW(decode_payload(bytes), CheckError);
  std::vector<std::uint8_t> truncated = encode_payload(m.state(), nullptr, QuantCodec::kInt8);
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(decode_payload(truncated), CheckError);

  // An int8 payload whose one 0-byte-named entry claims a 65536 x 65536 x 64
  // tensor in 30 bytes: rejected before any allocation, not std::bad_alloc.
  const std::vector<std::uint8_t> huge{
      0x50, 0x51, 0x46, 0x53,  // "SFQP"
      2,                       // int8
      1, 0, 0, 0,              // one entry
      0, 0, 0, 0,              // empty name
      3, 0, 0, 0,              // rank 3
      0, 0, 1, 0, 0, 0, 1, 0, 64, 0, 0, 0,
      0};                      // unmasked
  EXPECT_THROW(decode_payload(huge), CheckError);
}

// ---------------- Dropout fault injection --------------------------------------

TEST(Dropout, FederationSurvivesClientFailures) {
  static FederatedData data(DatasetSpec::mnist(), [] {
    FederatedDataConfig config;
    config.partition = {6, 2, 20};
    config.test_per_class = 6;
    config.seed = 13;
    return config;
  }());
  FlContext ctx;
  ctx.data = &data;
  ctx.spec = ModelSpec::cnn5(10);
  ctx.train = {2, 10};
  ctx.seed = 13;

  SubFedAvgConfig config;
  config.unstructured = {0.0, 0.4, 0.0, 0.2};
  SubFedAvg alg(ctx, config);

  DriverConfig driver{/*rounds=*/6, /*sample_rate=*/0.5, 0, 13};
  driver.dropout_prob = 0.5;
  const RunResult result = run_federation(alg, driver);
  EXPECT_GT(result.dropped_clients, 0u);
  // The run still completes and produces sane personalized accuracy.
  EXPECT_GT(result.final_avg_accuracy, 0.3);
}

TEST(Dropout, FullDropoutSkipsRoundsWithoutTraffic) {
  static FederatedData data(DatasetSpec::mnist(), [] {
    FederatedDataConfig config;
    config.partition = {3, 2, 15};
    config.test_per_class = 4;
    config.seed = 14;
    return config;
  }());
  FlContext ctx;
  ctx.data = &data;
  ctx.spec = ModelSpec::cnn5(10);
  ctx.train = {1, 10};
  ctx.seed = 14;

  Standalone alg(ctx);
  DriverConfig driver{/*rounds=*/4, /*sample_rate=*/1.0, 0, 14};
  driver.dropout_prob = 1.0;
  const RunResult result = run_federation(alg, driver);
  EXPECT_EQ(result.skipped_rounds, 4u);
  EXPECT_EQ(result.dropped_clients, 12u);
  EXPECT_EQ(result.total_bytes(), 0u);
}

TEST(Dropout, ZeroProbabilityMatchesBaselineRun) {
  static FederatedData data(DatasetSpec::mnist(), [] {
    FederatedDataConfig config;
    config.partition = {4, 2, 15};
    config.test_per_class = 4;
    config.seed = 15;
    return config;
  }());
  FlContext ctx;
  ctx.data = &data;
  ctx.spec = ModelSpec::cnn5(10);
  ctx.train = {1, 10};
  ctx.seed = 15;

  auto run = [&](double dropout) {
    Standalone alg(ctx);
    DriverConfig driver{3, 1.0, 0, 15};
    driver.dropout_prob = dropout;
    return run_federation(alg, driver).final_avg_accuracy;
  };
  EXPECT_EQ(run(0.0), run(0.0));
}

// ---------------- Sparsity report ----------------------------------------------

TEST(SparsityReport, PerLayerCountsMatchMask) {
  Rng rng(16);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kFcOnly);
  mask = derive_magnitude_mask(m, mask, 0.5);

  const auto rows = layer_sparsity(m, mask);
  ASSERT_EQ(rows.size(), m.parameters().size());
  for (const LayerSparsity& row : rows) {
    if (row.name == "fc1.weight") {
      EXPECT_TRUE(row.covered);
      EXPECT_NEAR(row.pruned_fraction(), 0.5, 0.01);
    }
    if (row.name == "conv1.weight") {
      EXPECT_FALSE(row.covered);
      EXPECT_EQ(row.kept, row.total);
    }
  }
}

TEST(SparsityReport, RendersAllParameters) {
  Rng rng(17);
  Model m = ModelSpec::lenet5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  const std::string report = sparsity_report(m, mask);
  for (const char* name : {"conv1.weight", "conv2.weight", "fc1.weight", "fc3.bias"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace subfed
