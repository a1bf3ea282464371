// End-to-end Sub-FedAvg federations: the paper's qualitative claims on a
// scaled-down federation (shape checks, not absolute numbers).
#include <gtest/gtest.h>

#include <cmath>

#include "fl/driver.h"
#include "fl/fedavg.h"
#include "fl/standalone.h"
#include "fl/subfedavg.h"
#include "util/logging.h"

namespace subfed {
namespace {

class Integration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedData& data() {
    static FederatedData instance(DatasetSpec::mnist(), [] {
      FederatedDataConfig config;
      config.partition = {8, 2, 40};
      config.test_per_class = 10;
      config.seed = 51;
      return config;
    }());
    return instance;
  }

  static FlContext ctx() {
    FlContext c;
    c.data = &data();
    c.spec = ModelSpec::cnn5(10);
    c.train = {/*epochs=*/3, /*batch=*/10};
    c.seed = 51;
    return c;
  }

  static DriverConfig driver(std::size_t rounds) {
    DriverConfig d;
    d.rounds = rounds;
    d.sample_rate = 0.5;
    d.seed = 51;
    return d;
  }

  static SubFedAvgConfig un_config(double target) {
    SubFedAvgConfig config;
    config.unstructured = {/*acc=*/0.3, target, /*eps=*/1e-4, /*rate=*/0.15};
    return config;
  }
};

TEST_F(Integration, SubFedAvgUnReachesHighPersonalizedAccuracy) {
  SubFedAvg alg(ctx(), un_config(0.5));
  const RunResult result = run_federation(alg, driver(10));
  EXPECT_GT(result.final_avg_accuracy, 0.70);
  // Pruning actually progressed federation-wide.
  EXPECT_GT(alg.average_unstructured_pruned(), 0.2);
}

TEST_F(Integration, SubFedAvgBeatsFedAvgUnderPathologicalNonIid) {
  // The paper's core claim (Remark-2): under 2-label non-IID, the global
  // FedAvg model scores clearly below the personalized Sub-FedAvg models.
  SubFedAvg sub(ctx(), un_config(0.5));
  const RunResult sub_result = run_federation(sub, driver(8));

  FedAvg fed(ctx());
  const RunResult fed_result = run_federation(fed, driver(8));

  EXPECT_GT(sub_result.final_avg_accuracy, fed_result.final_avg_accuracy + 0.05);
}

TEST_F(Integration, SubFedAvgCommCheaperThanFedAvg) {
  SubFedAvg sub(ctx(), un_config(0.7));
  const RunResult sub_result = run_federation(sub, driver(8));
  FedAvg fed(ctx());
  const RunResult fed_result = run_federation(fed, driver(8));
  EXPECT_LT(sub_result.total_bytes(), fed_result.total_bytes());
}

TEST_F(Integration, HybridPrunesChannelsAndReducesFlops) {
  SubFedAvgConfig config;
  config.hybrid = true;
  config.unstructured = {/*acc=*/0.3, /*target=*/0.5, /*eps=*/1e-4, /*rate=*/0.15};
  config.structured = {/*acc=*/0.3, /*target=*/0.4, /*eps=*/0.01, /*rate=*/0.2};
  SubFedAvg alg(ctx(), config);
  const RunResult result = run_federation(alg, driver(10));

  EXPECT_GT(result.final_avg_accuracy, 0.65);
  EXPECT_GT(alg.average_structured_pruned(), 0.15);
  // Per-client FLOP reduction reflects the channel pruning.
  double total_speedup = 0.0;
  for (std::size_t k = 0; k < alg.num_clients(); ++k) {
    const ReductionReport r = alg.client_reduction(k);
    total_speedup += r.flop_speedup;
    EXPECT_GE(r.flop_speedup, 1.0);
  }
  EXPECT_GT(total_speedup / static_cast<double>(alg.num_clients()), 1.1);
}

TEST_F(Integration, StrictIntersectionAblationStillLearns) {
  SubFedAvg alg(ctx(), un_config(0.5));
  alg.set_strict_intersection(true);
  const RunResult result = run_federation(alg, driver(8));
  EXPECT_GT(result.final_avg_accuracy, 0.65);
}

TEST_F(Integration, RunIsDeterministic) {
  auto run_once = [&] {
    SubFedAvg alg(ctx(), un_config(0.5));
    return run_federation(alg, driver(4));
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.final_avg_accuracy, b.final_avg_accuracy);
  EXPECT_EQ(a.up_bytes, b.up_bytes);
  ASSERT_EQ(a.final_per_client.size(), b.final_per_client.size());
  for (std::size_t k = 0; k < a.final_per_client.size(); ++k) {
    EXPECT_EQ(a.final_per_client[k], b.final_per_client[k]);
  }
}

TEST_F(Integration, PartnersShareSubnetworks) {
  // Clients with overlapping labels end up with more similar masks than
  // clients with disjoint labels — the paper's Client Subnetwork Observation.
  SubFedAvg alg(ctx(), un_config(0.5));
  run_federation(alg, driver(10));

  double overlap_similar = 0.0, overlap_disjoint = 0.0;
  std::size_t n_similar = 0, n_disjoint = 0;
  for (std::size_t a = 0; a < alg.num_clients(); ++a) {
    for (std::size_t b = a + 1; b < alg.num_clients(); ++b) {
      const auto& la = data().client(a).labels_present;
      const auto& lb = data().client(b).labels_present;
      bool shares = false;
      for (const auto l : la) {
        for (const auto m : lb) shares |= (l == m);
      }
      // client() references last only until the next client() call.
      const ModelMask mask_a = alg.client(a).weight_mask();
      const double jac = ModelMask::jaccard_overlap(mask_a, alg.client(b).weight_mask());
      if (shares) {
        overlap_similar += jac;
        ++n_similar;
      } else {
        overlap_disjoint += jac;
        ++n_disjoint;
      }
    }
  }
  if (n_similar > 0 && n_disjoint > 0) {
    EXPECT_GE(overlap_similar / n_similar + 0.02, overlap_disjoint / n_disjoint);
  }
}

TEST_F(Integration, ServerStateStaysFiniteAndBounded) {
  SubFedAvg alg(ctx(), un_config(0.7));
  run_federation(alg, driver(8));
  for (const auto& [name, tensor] : alg.global_state()) {
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(tensor[i])) << name;
    }
    EXPECT_LT(tensor.abs_max(), 1e3f) << name;
  }
}

}  // namespace
}  // namespace subfed
