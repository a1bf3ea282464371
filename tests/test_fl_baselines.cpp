// Baseline algorithms: FedAvg, FedProx, LG-FedAvg, MTL, Standalone.
// Small federations, few rounds — behavioural contracts, not benchmarks.
#include <gtest/gtest.h>

#include "fl/driver.h"
#include "fl/fedavg.h"
#include "fl/fedmtl.h"
#include "fl/lg_fedavg.h"
#include "fl/standalone.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

const FederatedData& small_data() {
  static FederatedData data(DatasetSpec::mnist(), [] {
    FederatedDataConfig config;
    config.partition = {6, 2, 30};
    config.test_per_class = 8;
    config.seed = 31;
    return config;
  }());
  return data;
}

FlContext small_ctx() {
  FlContext ctx;
  ctx.data = &small_data();
  ctx.spec = ModelSpec::cnn5(10);
  ctx.train = {/*epochs=*/2, /*batch=*/10};
  ctx.seed = 31;
  return ctx;
}

std::vector<std::size_t> all_clients() { return {0, 1, 2, 3, 4, 5}; }

TEST(Standalone, NoCommunication) {
  Standalone alg(small_ctx());
  const auto sampled = all_clients();
  alg.run_round(0, sampled);
  EXPECT_EQ(alg.ledger().total(), 0u);
}

TEST(Standalone, ImprovesOwnClientsOnly) {
  Standalone alg(small_ctx());
  const double before = alg.average_test_accuracy();
  std::vector<std::size_t> sampled{0};
  for (std::size_t r = 0; r < 4; ++r) alg.run_round(r, sampled);
  // Client 0 trained; others unchanged from the initial model.
  const double after0 = alg.client_test_accuracy(0);
  EXPECT_GT(after0, 0.4);
  (void)before;
}

TEST(FedAvg, GlobalStateChangesAfterRound) {
  FedAvg alg(small_ctx());
  const StateDict before = alg.global_state();
  const auto sampled = all_clients();
  alg.run_round(0, sampled);
  const StateDict& after = alg.global_state();
  bool changed = false;
  for (std::size_t e = 0; e < before.size() && !changed; ++e) {
    changed = !(before[e].second == after[e].second);
  }
  EXPECT_TRUE(changed);
}

TEST(FedAvg, ChargesDenseTrafficBothWays) {
  FedAvg alg(small_ctx());
  Model m = small_ctx().spec.build();
  const std::size_t dense = m.state().numel() * 4;
  const auto sampled = all_clients();
  alg.run_round(0, sampled);
  EXPECT_EQ(alg.ledger().round_up(0), dense * sampled.size());
  EXPECT_EQ(alg.ledger().round_down(0), dense * sampled.size());
}

TEST(FedAvg, LearnsOverRounds) {
  FedAvg alg(small_ctx());
  DriverConfig config;
  config.rounds = 6;
  config.sample_rate = 1.0;
  config.seed = 31;
  const RunResult result = run_federation(alg, config);
  // Global model on 2-label test sets: must beat 10-class chance clearly.
  EXPECT_GT(result.final_avg_accuracy, 0.2);
}

TEST(FedProx, ProximalTermShrinksDriftFromGlobal) {
  // With huge μ the client cannot move far from the global model; with μ=0
  // it reduces to FedAvg. Compare parameter drift after one round.
  auto drift = [&](double mu) {
    FlContext ctx = small_ctx();
    std::unique_ptr<FedAvg> alg;
    if (mu == 0.0) {
      alg = std::make_unique<FedAvg>(ctx);
    } else {
      alg = std::make_unique<FedProx>(ctx, mu);
    }
    const StateDict before = alg->global_state();
    std::vector<std::size_t> sampled{0};
    alg->run_round(0, sampled);
    const StateDict& after = alg->global_state();
    double d = 0.0;
    for (std::size_t e = 0; e < before.size(); ++e) {
      Tensor diff = sub(after[e].second, before[e].second);
      d += diff.squared_norm();
    }
    return d;
  };
  const double free_drift = drift(0.0);
  const double prox_drift = drift(10.0);
  EXPECT_LT(prox_drift, free_drift);
  EXPECT_GT(prox_drift, 0.0);
}

TEST(LgFedAvg, OnlyHeadIsCommunicated) {
  LgFedAvg alg(small_ctx());
  Model m = small_ctx().spec.build();
  std::size_t head_bytes = 0;
  for (const auto& [name, tensor] : m.state()) {
    if (LgFedAvg::is_global_entry(name)) head_bytes += tensor.numel() * 4;
  }
  const auto sampled = all_clients();
  alg.run_round(0, sampled);
  EXPECT_EQ(alg.ledger().round_up(0), head_bytes * sampled.size());
  EXPECT_LT(head_bytes, m.state().numel() * 4);  // strictly smaller than dense
}

TEST(LgFedAvg, IsGlobalEntryClassifiesNames) {
  EXPECT_TRUE(LgFedAvg::is_global_entry("fc1.weight"));
  EXPECT_TRUE(LgFedAvg::is_global_entry("fc2.bias"));
  EXPECT_FALSE(LgFedAvg::is_global_entry("conv1.weight"));
  EXPECT_FALSE(LgFedAvg::is_global_entry("bn1.gamma"));
}

TEST(LgFedAvg, ConvStaysPersonal) {
  LgFedAvg alg(small_ctx());
  std::vector<std::size_t> sampled{0, 1};
  alg.run_round(0, sampled);
  // Personalized accuracy is defined for every client (untrained ones score
  // with the initial conv + aggregated head).
  for (std::size_t k = 0; k < alg.num_clients(); ++k) {
    const double acc = alg.client_test_accuracy(k);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

TEST(FedMtl, ChargesDoubleDenseTraffic) {
  FedMtl alg(small_ctx(), /*lambda=*/0.1);
  Model m = small_ctx().spec.build();
  const std::size_t dense = m.state().numel() * 4;
  const auto sampled = all_clients();
  alg.run_round(0, sampled);
  EXPECT_EQ(alg.ledger().round_up(0), 2 * dense * sampled.size());
  EXPECT_EQ(alg.ledger().round_down(0), 2 * dense * sampled.size());
}

TEST(FedMtl, MemoryLedgerChargesTheDualStatePayload) {
  // Both transports exchange the model plus its dual state. Memory charges
  // that payload's size without materializing it; loopback round-trips the
  // same values through real bytes, so the clients train identically.
  FlContext loopback_ctx = small_ctx();
  loopback_ctx.transport = "loopback";
  FedMtl memory(small_ctx(), /*lambda=*/0.1);
  FedMtl loopback(loopback_ctx, /*lambda=*/0.1);
  const std::vector<std::vector<std::size_t>> cohorts = {{0, 2, 4}, {5, 1, 3}};
  for (std::size_t r = 0; r < cohorts.size(); ++r) {
    memory.run_round(r, cohorts[r]);
    loopback.run_round(r, cohorts[r]);
  }
  Model m = small_ctx().spec.build();
  const std::size_t dense = m.state().numel() * 4;
  EXPECT_EQ(memory.ledger().total_up(), 2 * dense * 6);
  EXPECT_EQ(memory.ledger().total_down(), 2 * dense * 6);
  EXPECT_EQ(memory.ledger().total_up(), 1054080u);
  EXPECT_EQ(memory.ledger().total_down(), 1054080u);
  EXPECT_EQ(memory.all_test_accuracies(), loopback.all_test_accuracies());
}

TEST(FedMtl, PersonalModelsDiverge) {
  FedMtl alg(small_ctx(), 0.01);
  const auto sampled = all_clients();
  alg.run_round(0, sampled);
  // Two clients with different labels end with different personal models.
  const double a0 = alg.client_test_accuracy(0);
  const double a1 = alg.client_test_accuracy(1);
  EXPECT_GE(a0, 0.0);
  EXPECT_GE(a1, 0.0);
}

TEST(Driver, CurveAndCheckpoints) {
  Standalone alg(small_ctx());
  DriverConfig config;
  config.rounds = 4;
  config.sample_rate = 1.0;
  config.eval_every = 2;
  config.seed = 31;
  const RunResult result = run_federation(alg, config);
  // Checkpoints at rounds 2 and 4.
  ASSERT_EQ(result.curve.size(), 2u);
  EXPECT_EQ(result.curve[0].round, 2u);
  EXPECT_EQ(result.curve[1].round, 4u);
  EXPECT_EQ(result.final_per_client.size(), 6u);
}

TEST(Driver, SampleRateControlsCohortSize) {
  FedAvg alg(small_ctx());
  Model m = small_ctx().spec.build();
  const std::size_t dense = m.state().numel() * 4;
  DriverConfig config;
  config.rounds = 1;
  config.sample_rate = 0.5;  // 3 of 6 clients
  config.seed = 31;
  run_federation(alg, config);
  EXPECT_EQ(alg.ledger().round_up(0), dense * 3);
}

TEST(Driver, RoundsToReach) {
  RunResult r;
  r.curve = {{2, 0.1}, {4, 0.6}, {6, 0.8}};
  EXPECT_EQ(r.rounds_to_reach(0.5), 4u);
  EXPECT_EQ(r.rounds_to_reach(0.9), 0u);
}

TEST(Driver, ValidatesConfig) {
  Standalone alg(small_ctx());
  DriverConfig bad;
  bad.rounds = 0;
  EXPECT_THROW(run_federation(alg, bad), CheckError);
  bad.rounds = 1;
  bad.sample_rate = 0.0;
  EXPECT_THROW(run_federation(alg, bad), CheckError);
}

}  // namespace
}  // namespace subfed
