// SubFedAvgClient round behaviour: personalization, gating, mask evolution.
#include <gtest/gtest.h>

#include "core/subfedavg_client.h"
#include "data/client_data.h"
#include "util/rng.h"

namespace subfed {
namespace {

// Shared fixture: a small MNIST-surrogate federation.
class SubFedAvgClientTest : public ::testing::Test {
 protected:
  static const FederatedData& data() {
    static FederatedData instance(DatasetSpec::mnist(), [] {
      FederatedDataConfig config;
      config.partition = {4, 2, 40};
      config.test_per_class = 8;
      config.seed = 21;
      return config;
    }());
    return instance;
  }

  static ModelSpec spec() { return ModelSpec::cnn5(10); }

  static StateDict initial_global() {
    Rng rng(99);
    Model m = spec().build_init(rng);
    return m.state();
  }

  static SubFedAvgConfig un_config() {
    SubFedAvgConfig config;
    config.unstructured = {/*acc=*/0.0, /*target=*/0.5, /*eps=*/0.0, /*rate=*/0.2};
    config.train = {/*epochs=*/2, /*batch=*/10};
    return config;
  }

  static SubFedAvgConfig hy_config() {
    SubFedAvgConfig config = un_config();
    config.hybrid = true;
    config.structured = {/*acc=*/0.0, /*target=*/0.5, /*eps=*/0.0, /*rate=*/0.25};
    return config;
  }
};

TEST_F(SubFedAvgClientTest, RoundPrunesWhenGateAlwaysOpen) {
  SubFedAvgClient client(0, spec(), un_config(), &data().client(0), Rng(1));
  client.seed_personal(initial_global());

  ClientRoundReport report;
  ClientUpdate update = client.run_round(initial_global(), 0, &report);
  // ε=0, Accth=0 → the gate is open whenever distance ≥ 0, so round 0 prunes
  // 20% of remaining.
  EXPECT_TRUE(report.pruned_us);
  EXPECT_NEAR(client.unstructured_pruned(), 0.2, 0.01);
  EXPECT_EQ(update.num_examples, data().client(0).train_labels.size());
  // Upload state has the mask applied: pruned positions are exact zeros.
  for (const auto& [name, mask] : update.mask) {
    const Tensor& value = *update.state.find(name);
    for (std::size_t i = 0; i < mask.numel(); ++i) {
      if (mask[i] == 0.0f) EXPECT_EQ(value[i], 0.0f) << name;
    }
  }
}

TEST_F(SubFedAvgClientTest, SuccessiveRoundsApproachTarget) {
  SubFedAvgClient client(0, spec(), un_config(), &data().client(0), Rng(2));
  client.seed_personal(initial_global());
  StateDict global = initial_global();
  double prev = -1.0;
  for (std::size_t round = 0; round < 12; ++round) {
    client.run_round(global, round);
    EXPECT_GE(client.unstructured_pruned(), prev);  // monotone
    prev = client.unstructured_pruned();
  }
  EXPECT_NEAR(client.unstructured_pruned(), 0.5, 0.02);
}

TEST_F(SubFedAvgClientTest, AccuracyThresholdBlocksPruning) {
  SubFedAvgConfig config = un_config();
  config.unstructured.acc_threshold = 1.01;  // unreachable
  SubFedAvgClient client(0, spec(), config, &data().client(0), Rng(3));
  client.seed_personal(initial_global());
  ClientRoundReport report;
  client.run_round(initial_global(), 0, &report);
  EXPECT_FALSE(report.pruned_us);
  EXPECT_EQ(client.unstructured_pruned(), 0.0);
}

TEST_F(SubFedAvgClientTest, EpsilonBlocksPruningWhenMasksStable) {
  SubFedAvgConfig config = un_config();
  config.unstructured.epsilon = 1.1;  // no mask pair can differ that much
  SubFedAvgClient client(0, spec(), config, &data().client(0), Rng(4));
  client.seed_personal(initial_global());
  ClientRoundReport report;
  client.run_round(initial_global(), 0, &report);
  EXPECT_FALSE(report.pruned_us);
}

TEST_F(SubFedAvgClientTest, PrunedWeightsStayZeroThroughTraining) {
  SubFedAvgClient client(1, spec(), un_config(), &data().client(1), Rng(5));
  client.seed_personal(initial_global());
  StateDict global = initial_global();
  client.run_round(global, 0);
  const ModelMask mask_after_r0 = client.weight_mask();

  // Run another round from a fresh global; previously pruned entries must
  // remain zero in the new upload even though the global is dense.
  ClientUpdate update = client.run_round(global, 1);
  for (const auto& [name, mask] : mask_after_r0) {
    const Tensor& value = *update.state.find(name);
    for (std::size_t i = 0; i < mask.numel(); ++i) {
      if (mask[i] == 0.0f) EXPECT_EQ(value[i], 0.0f) << name << "[" << i << "]";
    }
  }
}

TEST_F(SubFedAvgClientTest, HybridPrunesChannelsAndFcIndependently) {
  SubFedAvgClient client(2, spec(), hy_config(), &data().client(2), Rng(6));
  client.seed_personal(initial_global());
  ClientRoundReport report;
  client.run_round(initial_global(), 0, &report);
  EXPECT_TRUE(report.pruned_us);
  EXPECT_TRUE(report.pruned_s);
  EXPECT_GT(client.structured_pruned(), 0.0);
  EXPECT_GT(client.unstructured_pruned(), 0.0);
  // Hybrid unstructured mask covers FC only.
  EXPECT_EQ(client.weight_mask().find("conv1.weight"), nullptr);
  EXPECT_NE(client.weight_mask().find("fc1.weight"), nullptr);
}

TEST_F(SubFedAvgClientTest, HybridGatesAreIndependent) {
  SubFedAvgConfig config = hy_config();
  config.structured.epsilon = 1.1;  // block structured only
  SubFedAvgClient client(2, spec(), config, &data().client(2), Rng(7));
  client.seed_personal(initial_global());
  ClientRoundReport report;
  client.run_round(initial_global(), 0, &report);
  EXPECT_TRUE(report.pruned_us);    // unstructured gate still opens
  EXPECT_FALSE(report.pruned_s);
  EXPECT_EQ(client.structured_pruned(), 0.0);
}

TEST_F(SubFedAvgClientTest, CombinedMaskComposesChannelAndWeightMasks) {
  SubFedAvgClient client(3, spec(), hy_config(), &data().client(3), Rng(8));
  client.seed_personal(initial_global());
  client.run_round(initial_global(), 0);
  ModelMask combined = client.combined_mask();
  // Channel expansion adds conv coverage; FC mask bits are ANDed in.
  EXPECT_NE(combined.find("conv1.weight"), nullptr);
  EXPECT_NE(combined.find("fc1.weight"), nullptr);
  EXPECT_GT(combined.pruned_fraction(), 0.0);
}

TEST_F(SubFedAvgClientTest, EvaluateUsesPersonalState) {
  SubFedAvgClient client(0, spec(), un_config(), &data().client(0), Rng(9));
  client.seed_personal(initial_global());
  const double before = client.evaluate_test(data().client_test(0)).accuracy;
  StateDict global = initial_global();
  for (std::size_t round = 0; round < 4; ++round) client.run_round(global, round);
  const double after = client.evaluate_test(data().client_test(0)).accuracy;
  // Trained-on-own-labels model must beat the untrained initial model.
  EXPECT_GT(after, before + 0.2);
}

TEST_F(SubFedAvgClientTest, DeterministicAcrossIdenticalRuns) {
  auto run = [&](std::uint64_t seed) {
    SubFedAvgClient client(0, spec(), un_config(), &data().client(0), Rng(seed));
    client.seed_personal(initial_global());
    ClientUpdate u = client.run_round(initial_global(), 0);
    return u;
  };
  const ClientUpdate a = run(11), b = run(11);
  for (std::size_t e = 0; e < a.state.size(); ++e) {
    EXPECT_EQ(a.state[e].second, b.state[e].second);
  }
  EXPECT_EQ(ModelMask::hamming_distance(a.mask, b.mask), 0.0);
}

TEST_F(SubFedAvgClientTest, SeedPersonalFixesNeverSampledEval) {
  SubFedAvgClient client(0, spec(), un_config(), &data().client(0), Rng(12));
  // Without seeding, the template has zero weights → ~chance accuracy.
  client.seed_personal(initial_global());
  const EvalStats eval = client.evaluate_test(data().client_test(0));
  EXPECT_EQ(eval.examples, data().client(0).labels_present.size() * 8);
}

}  // namespace
}  // namespace subfed
