// Incremental evaluation: all_test_accuracies answers a client from its last
// evaluation while the client's evaluation key (its ClientStateStore version)
// is unchanged, and must stay indistinguishable from evaluating every client.
//
//   * cached ≡ recomputed for every keyed algorithm, eager and lazy;
//   * exactly the clients whose state a round (or a restore) wrote are
//     re-evaluated, counted by the eval.* telemetry counters;
//   * global-model algorithms, which return no key, evaluate every client;
//   * store versions move on writes only, never on reads, spills or
//     refaults, and never repeat;
//   * evaluation leaves the store's residency alone (no spills).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fl/client_state.h"
#include "fl/experiment.h"
#include "serve/session.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace subfed {
namespace {

const std::vector<std::string> kKeyedAlgorithms = {"subfedavg_un", "subfedavg_hy",
                                                   "standalone", "fedmtl"};
const std::vector<std::string> kGlobalModelAlgorithms = {"fedavg", "fedprox", "fedavg_ft",
                                                         "lg_fedavg"};

ExperimentSpec small_spec(const std::string& algo, std::size_t client_cache) {
  set_log_level(LogLevel::kWarn);
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 20;
  spec.test_per_class = 4;
  spec.epochs = 1;
  spec.rounds = 4;
  spec.sample = 0.5;
  spec.eval_every = 1;
  spec.seed = 23;
  spec.algo = algo;
  spec.client_cache = client_cache;
  return spec;
}

std::vector<double> recomputed(FederatedAlgorithm& algorithm) {
  std::vector<double> acc(algorithm.num_clients());
  for (std::size_t k = 0; k < acc.size(); ++k) acc[k] = algorithm.client_test_accuracy(k);
  return acc;
}

/// Counts what all_test_accuracies evaluated and answered from its table
/// between construction and each take().
class EvalCounts {
 public:
  EvalCounts() : previous_(telemetry::level()) {
    telemetry::set_level(telemetry::Level::kCounters);
    evaluated_before_ = evaluated_.value();
    reused_before_ = reused_.value();
  }
  ~EvalCounts() { telemetry::set_level(previous_); }

  /// {evaluated, reused} since the previous take().
  std::pair<std::uint64_t, std::uint64_t> take() {
    const std::pair<std::uint64_t, std::uint64_t> delta{
        evaluated_.value() - evaluated_before_, reused_.value() - reused_before_};
    evaluated_before_ = evaluated_.value();
    reused_before_ = reused_.value();
    return delta;
  }

 private:
  telemetry::Counter& evaluated_ = telemetry::counter("eval.clients_evaluated");
  telemetry::Counter& reused_ = telemetry::counter("eval.clients_reused");
  telemetry::Level previous_;
  std::uint64_t evaluated_before_ = 0;
  std::uint64_t reused_before_ = 0;
};

class CohortRecorder final : public RoundObserver {
 public:
  void on_round_begin(std::size_t /*round*/, std::span<const std::size_t> sampled) override {
    cohort.assign(sampled.begin(), sampled.end());
  }
  std::vector<std::size_t> cohort;
};

TEST(EvalCache, CachedEqualsRecomputed) {
  for (const std::string& algo : kKeyedAlgorithms) {
    for (const std::size_t cache : {std::size_t{0}, std::size_t{2}}) {
      const std::string what = algo + (cache == 0 ? " eager" : " client_cache=2");
      auto session = FederationSession::from_spec(small_spec(algo, cache));
      FederatedAlgorithm& algorithm = session->algorithm();
      EXPECT_EQ(algorithm.all_test_accuracies(), recomputed(algorithm)) << what << " round 0";
      for (std::size_t round = 1; round <= 4; ++round) {
        ASSERT_TRUE(session->advance_round()) << what;
        const std::vector<double> cached = algorithm.all_test_accuracies();
        EXPECT_EQ(cached, recomputed(algorithm)) << what << " round " << round;
        EXPECT_EQ(algorithm.all_test_accuracies(), cached) << what << " round " << round;
      }
    }
  }
}

TEST(EvalCache, EvaluatesOnlyChangedClients) {
  for (const std::string& algo : kKeyedAlgorithms) {
    auto session = FederationSession::from_spec(small_spec(algo, 2));
    FederatedAlgorithm& algorithm = session->algorithm();
    const std::uint64_t n = algorithm.num_clients();
    EvalCounts counts;

    // Each client has its own test set, so the first evaluation is full.
    session->evaluate();
    EXPECT_EQ(counts.take(), std::make_pair(n, std::uint64_t{0})) << algo << " first";
    session->evaluate();
    EXPECT_EQ(counts.take(), std::make_pair(std::uint64_t{0}, n)) << algo << " no round";

    CohortRecorder recorder;
    for (std::size_t round = 1; round <= 3; ++round) {
      ASSERT_TRUE(session->advance_round(&recorder)) << algo;
      const std::set<std::size_t> distinct(recorder.cohort.begin(), recorder.cohort.end());
      ASSERT_FALSE(distinct.empty());
      session->evaluate();
      EXPECT_EQ(counts.take(), std::make_pair(std::uint64_t{distinct.size()},
                                              n - std::uint64_t{distinct.size()}))
          << algo << " round " << round;
    }

    // finish() right after the horizon's evaluation re-evaluates no client.
    const RunResult result = session->finish();
    EXPECT_EQ(counts.take().first, 0u) << algo << " finish";
    EXPECT_EQ(result.final_per_client, recomputed(algorithm)) << algo;

    // A restore rewrites every client, even with identical contents.
    algorithm.restore_checkpoint_state(algorithm.checkpoint_state());
    const std::vector<double> restored = algorithm.all_test_accuracies();
    EXPECT_EQ(counts.take(), std::make_pair(n, std::uint64_t{0})) << algo << " restore";
    EXPECT_EQ(restored, result.final_per_client) << algo;
  }
}

TEST(EvalCache, GlobalModelAlgorithmsEvaluateEveryClient) {
  for (const std::string& algo : kGlobalModelAlgorithms) {
    auto session = FederationSession::from_spec(small_spec(algo, 0));
    FederatedAlgorithm& algorithm = session->algorithm();
    const std::uint64_t n = algorithm.num_clients();
    EvalCounts counts;
    EXPECT_EQ(algorithm.all_test_accuracies(), recomputed(algorithm)) << algo;
    EXPECT_EQ(counts.take(), std::make_pair(n, std::uint64_t{0})) << algo << " first";
    algorithm.all_test_accuracies();
    EXPECT_EQ(counts.take(), std::make_pair(n, std::uint64_t{0})) << algo << " again";
    ASSERT_TRUE(session->advance_round()) << algo;
    EXPECT_EQ(algorithm.all_test_accuracies(), recomputed(algorithm)) << algo;
    EXPECT_EQ(counts.take().first, n) << algo << " after a round";
  }
}

TEST(EvalCache, EvaluationLeavesStoreResidencyAlone) {
  for (const std::string& algo : {"standalone", "fedmtl", "lg_fedavg", "subfedavg_un"}) {
    auto session = FederationSession::from_spec(small_spec(algo, 2));
    FederatedAlgorithm& algorithm = session->algorithm();
    EvalCounts counts;  // raises telemetry to counters, so spills are counted
    for (int round = 0; round < 3; ++round) ASSERT_TRUE(session->advance_round()) << algo;
    telemetry::Counter& spills = telemetry::counter("state.spills");
    const std::uint64_t before = spills.value();
    ASSERT_GT(before, 0u) << algo << ": the 2-slot cache never spilled";
    const std::vector<double> acc = algorithm.all_test_accuracies();
    EXPECT_EQ(spills.value(), before) << algo;
    EXPECT_EQ(acc, recomputed(algorithm)) << algo;
    EXPECT_EQ(spills.value(), before) << algo;
  }
}

// --- store versions -----------------------------------------------------------

StateSections sections_of(float value) {
  StateDict state;
  state.add("w", Tensor(Shape{8}, value));
  return StateSections{state};
}

TEST(ClientStateStore, VersionChangesOnlyOnWrites) {
  ClientStateStore store;
  std::set<std::uint64_t> seen;
  auto fresh = [&seen](std::uint64_t version) { return seen.insert(version).second; };
  auto versions = [&store] {
    std::vector<std::uint64_t> v(store.size());
    for (std::size_t k = 0; k < v.size(); ++k) v[k] = store.version(k);
    return v;
  };

  store.init(3, sections_of(0.0f), /*hot_capacity=*/1);
  const std::uint64_t epoch = store.version(0);
  EXPECT_TRUE(fresh(epoch));
  EXPECT_EQ(versions(), std::vector<std::uint64_t>(3, epoch));

  for (std::size_t k = 0; k < 3; ++k) {
    store.put(k, sections_of(static_cast<float>(k + 1)));
    EXPECT_TRUE(fresh(store.version(k))) << "put " << k;
  }
  // Three touched clients through a 1-slot cache: two were spilled.
  EXPECT_EQ(store.spills(), 2u);
  const std::vector<std::uint64_t> written = versions();

  // Reads, peeks, refaults and the spills they cause move no version.
  (void)store.peek(0);
  (void)store.read(0);
  (void)store.read(1);
  (void)store.peek(2);
  EXPECT_GE(store.refaults(), 2u);
  EXPECT_GE(store.spills(), 3u);
  EXPECT_EQ(versions(), written);

  // Re-putting identical contents is still a write.
  store.put(1, sections_of(2.0f));
  EXPECT_TRUE(fresh(store.version(1)));

  // reset: every client back at the shared initial sections, at a new epoch.
  store.reset();
  const std::uint64_t reset_epoch = store.version(0);
  EXPECT_TRUE(fresh(reset_epoch));
  EXPECT_EQ(versions(), std::vector<std::uint64_t>(3, reset_epoch));
  store.put(0, sections_of(1.0f));  // same contents as before the reset
  EXPECT_TRUE(fresh(store.version(0)));

  store.init(3, sections_of(0.0f), 0);
  EXPECT_TRUE(fresh(store.version(2)));
  EXPECT_EQ(versions(), std::vector<std::uint64_t>(3, store.version(2)));
  EXPECT_FALSE(store.touched(0));
}

}  // namespace
}  // namespace subfed
