// Buffered (FedBuff-style) aggregation: sync equivalence with a full buffer,
// staleness weighting and eviction, arrival-order determinism, crash
// isolation, and pipe hygiene across many buffered rounds.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cmath>
#include <string>

#include "comm/channel.h"
#include "core/aggregate.h"
#include "fl/experiment.h"
#include "fl/registry.h"
#include "nn/model_zoo.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"

namespace subfed {
namespace {

ExperimentSpec small_spec(const std::string& algo) {
  set_log_level(LogLevel::kWarn);
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 25;
  spec.test_per_class = 8;
  spec.rounds = 3;
  spec.epochs = 1;
  spec.sample = 0.5;
  spec.eval_every = 1;
  spec.seed = 17;
  spec.algo = algo;
  return spec;
}

void expect_same_learning(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.final_avg_accuracy, b.final_avg_accuracy);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].avg_accuracy, b.curve[i].avg_accuracy);
  }
  ASSERT_EQ(a.final_per_client.size(), b.final_per_client.size());
  for (std::size_t k = 0; k < a.final_per_client.size(); ++k) {
    EXPECT_EQ(a.final_per_client[k], b.final_per_client[k]);
  }
}

// ---------------------------------------------------------------------------
// Sync equivalence

TEST(BufferedAggregation, FullBufferMatchesSyncBitIdenticallyOnMemory) {
  // buffer_k == sampled count (0 = all): nothing is ever parked, every weight
  // is 1.0, and the weighted aggregation rules degenerate to the unweighted
  // math bit-for-bit.
  for (const char* algo : {"fedavg", "subfedavg_un", "lg_fedavg"}) {
    ExperimentSpec spec = small_spec(algo);
    const ExecutedRun sync = execute_experiment(spec);
    spec.aggregation = "buffered";
    const ExecutedRun buffered = execute_experiment(spec);
    expect_same_learning(sync.result, buffered.result);
    EXPECT_EQ(sync.result.total_bytes(), buffered.result.total_bytes()) << algo;
    EXPECT_EQ(sync.result.simulated_seconds, buffered.result.simulated_seconds) << algo;
    EXPECT_EQ(buffered.metrics.at("stale_updates"), 0.0) << algo;
    EXPECT_EQ(buffered.metrics.at("parked_updates"), 0.0) << algo;
  }
}

TEST(BufferedAggregation, RunsOnEveryTransportForEveryRegistryAlgorithm) {
  for (const std::string& algo : list_algorithms()) {
    if (algo.rfind("test_", 0) == 0) continue;  // test doubles
    for (const char* transport : {"memory", "loopback", "subprocess"}) {
      ExperimentSpec spec = small_spec(algo);
      spec.rounds = 2;
      spec.transport = transport;
      spec.channel_workers = 2;
      spec.aggregation = "buffered";
      spec.buffer_k = 2;
      spec.link_spread = 4.0;
      const ExecutedRun run = execute_experiment(spec);
      if (std::string(transport) != "memory") {
        // Materializing transports charge real bytes for every algorithm;
        // the memory fast path charges standalone's empty pings as zero.
        EXPECT_GT(run.result.up_bytes, 0u) << algo << "/" << transport;
      }
      EXPECT_GE(run.metrics.at("stale_updates") + run.metrics.at("parked_updates") +
                    run.metrics.at("evicted_updates"),
                1.0)
          << algo << "/" << transport << ": 3 sampled, buffer 2 → someone waited";
    }
  }
}

// ---------------------------------------------------------------------------
// Early close and staleness

TEST(BufferedAggregation, EarlyCloseShortensSimulatedRoundsAtEqualBytes) {
  ExperimentSpec spec = small_spec("fedavg");
  spec.clients = 8;
  spec.rounds = 4;
  spec.transport = "loopback";
  spec.link_spread = 8.0;
  const ExecutedRun sync = execute_experiment(spec);
  spec.aggregation = "buffered";
  spec.buffer_k = 2;  // 4 sampled per round
  const ExecutedRun buffered = execute_experiment(spec);
  // Same traffic crossed the wire, but rounds closed at the 2nd arrival
  // instead of the 4th — simulated time must strictly drop under a straggler
  // tail.
  EXPECT_EQ(sync.result.total_bytes(), buffered.result.total_bytes());
  EXPECT_LT(buffered.result.simulated_seconds, sync.result.simulated_seconds);
  EXPECT_GT(buffered.metrics.at("stale_updates"), 0.0);
}

TEST(BufferedAggregation, StalenessWeightsFollowPolynomialDecay) {
  // Aggregating two equal-example updates with values 0 and 1: the weighted
  // mean must land exactly at w_stale / (w_fresh + w_stale).
  const double decay = 0.7;
  const std::size_t staleness = 3;
  ClientUpdate fresh, stale;
  fresh.state.add("w", Tensor(Shape{2}, {0.0f, 0.0f}));
  fresh.num_examples = 10;
  stale.state.add("w", Tensor(Shape{2}, {1.0f, 1.0f}));
  stale.num_examples = 10;
  stale.weight = std::pow(1.0 + static_cast<double>(staleness), -decay);

  const std::vector<ClientUpdate> updates{fresh, stale};
  const StateDict merged = fedavg_aggregate(updates);
  const double expected = stale.weight / (1.0 + stale.weight);
  EXPECT_NEAR((*merged.find("w"))[0], expected, 1e-6);

  // The mask-aware counting rule honors the same weights on covered entries.
  ClientUpdate masked_fresh = fresh, masked_stale = stale;
  masked_fresh.mask.set("w", Tensor(Shape{2}, {1.0f, 1.0f}));
  masked_stale.mask.set("w", Tensor(Shape{2}, {1.0f, 0.0f}));
  const StateDict previous = fresh.state;
  const std::vector<ClientUpdate> masked{masked_fresh, masked_stale};
  const StateDict sub = sub_fedavg_aggregate(masked, previous);
  EXPECT_NEAR((*sub.find("w"))[0], expected, 1e-6);  // both keep entry 0
  EXPECT_NEAR((*sub.find("w"))[1], 0.0, 1e-6);       // only fresh keeps entry 1
}

TEST(BufferedAggregation, MaxStalenessEvictsParkedUpdates) {
  ExperimentSpec spec = small_spec("fedavg");
  spec.clients = 8;
  spec.rounds = 4;
  spec.link_spread = 8.0;
  spec.aggregation = "buffered";
  spec.buffer_k = 2;  // 4 sampled per round → 2 park every round
  spec.max_staleness = 0;  // nothing may wait even one round
  const ExecutedRun run = execute_experiment(spec);
  EXPECT_EQ(run.metrics.at("stale_updates"), 0.0);
  EXPECT_GT(run.metrics.at("evicted_updates"), 0.0);
  // Conservation: every parked update either delivered late, was evicted, or
  // is still waiting — 2 parked per round for 4 rounds.
  EXPECT_EQ(run.metrics.at("stale_updates") + run.metrics.at("evicted_updates") +
                run.metrics.at("parked_updates"),
            8.0);
}

// ---------------------------------------------------------------------------
// Determinism

TEST(BufferedAggregation, LoopbackArrivalOrderIsDeterministicPerSeed) {
  // The loopback transport orders replies by each client's simulated
  // link+compute time under the seeded LinkFleet, so two identical runs must
  // park the same updates and reproduce each other bit-for-bit.
  ExperimentSpec spec = small_spec("subfedavg_un");
  spec.clients = 8;
  spec.transport = "loopback";
  spec.link_spread = 6.0;
  spec.aggregation = "buffered";
  spec.buffer_k = 2;
  const ExecutedRun a = execute_experiment(spec);
  const ExecutedRun b = execute_experiment(spec);
  expect_same_learning(a.result, b.result);
  EXPECT_EQ(a.result.simulated_seconds, b.result.simulated_seconds);
  EXPECT_EQ(a.metrics.at("stale_updates"), b.metrics.at("stale_updates"));
  EXPECT_EQ(a.metrics.at("evicted_updates"), b.metrics.at("evicted_updates"));
}

// ---------------------------------------------------------------------------
// Crash isolation

TEST(BufferedAggregation, DeadSubprocessWorkerStillFailsTheBufferedRun) {
  // Registered by tests/test_channel.cpp in its binary; register our own
  // double here (names must not collide across test binaries — same registry
  // pattern, different name would double-register only within one process).
  static const bool registered = [] {
    registry().add("test_async_crashy", "worker-killing buffered test double",
                   [](const FlContext& ctx, const AlgoParams&) {
                     class Crashy final : public FederatedAlgorithm {
                      public:
                       explicit Crashy(FlContext ctx) : FederatedAlgorithm(std::move(ctx)) {}
                       std::string name() const override { return "Crashy"; }
                       void run_round(std::size_t round,
                                      std::span<const std::size_t> sampled) override {
                         static const StateDict kEmpty;
                         std::vector<ClientJob> jobs(sampled.size());
                         for (std::size_t i = 0; i < sampled.size(); ++i) {
                           jobs[i] = {sampled[i], &kEmpty, nullptr};
                         }
                         channel_->run_round(
                             round, jobs,
                             [coordinator = ::getpid()](std::size_t, const ClientJob&,
                                                        const StateDict&) {
                               if (::getpid() != coordinator) ::_exit(7);
                               return ClientResult{};
                             });
                       }
                       double client_test_accuracy(std::size_t) override { return 0.0; }
                     };
                     return std::make_unique<Crashy>(ctx);
                   });
    return true;
  }();
  (void)registered;

  ExperimentSpec spec = small_spec("test_async_crashy");
  spec.rounds = 1;
  spec.transport = "subprocess";
  spec.aggregation = "buffered";
  spec.buffer_k = 1;
  EXPECT_THROW(execute_experiment(spec), CheckError);
  spec.transport = "loopback";
  EXPECT_NO_THROW(execute_experiment(spec));
}

// ---------------------------------------------------------------------------
// Pipe hygiene

std::size_t open_fd_count() {
  std::size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(BufferedAggregation, SubprocessPipesDoNotLeakAcrossFiftyBufferedRounds) {
  // An early-closed buffered round must still reap every worker and close
  // both of its pipes — fd count stays flat over many rounds.
  CommLedger ledger;
  ChannelConfig config;
  config.transport = "subprocess";
  config.workers = 2;
  config.buffered = true;
  config.buffer_k = 1;
  Channel channel(config, &ledger);

  StateDict payload;
  payload.add("w", Tensor(Shape{4}, {1.0f, 2.0f, 3.0f, 4.0f}));
  const auto client_fn = [&](std::size_t, const ClientJob&, const StateDict& received) {
    ClientResult result;
    result.update.state = received;
    result.update.num_examples = 1;
    return result;
  };
  std::vector<ClientJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i] = {i, &payload, nullptr};

  channel.run_round(0, jobs, client_fn);  // warm up any lazily opened fds
  const std::size_t before = open_fd_count();
  ASSERT_GT(before, 0u);
  for (std::size_t round = 1; round <= 50; ++round) {
    channel.run_round(round, jobs, client_fn);
  }
  EXPECT_EQ(open_fd_count(), before);
  EXPECT_GT(channel.stale_updates() + channel.parked_updates() +
                channel.evicted_updates(),
            0u);
}

}  // namespace
}  // namespace subfed
