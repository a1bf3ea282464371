// Scale correctness: the lazy client store must be an invisible optimization.
//
//   * lazy (client_cache > 0) ≡ eager (client_cache == 0) bit-identity for
//     every registry algorithm — curves, per-client accuracies, byte ledger,
//     and the full checkpoint container byte-for-byte;
//   * spill/refault determinism under a cache small enough to thrash, across
//     a mid-run save/restore;
//   * data-level tensor equality between residency modes (shards and
//     dirichlet partitions), plus concurrent lazy access;
//   * the event-driven round loop (arrivals/dwell): deterministic per seed,
//     arrival-bounded sampling, drained-population accounting, and the spec
//     validation rules guarding it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "data/client_data.h"
#include "fl/checkpoint.h"
#include "fl/client_state.h"
#include "fl/experiment.h"
#include "fl/registry.h"
#include "fl/subfedavg.h"
#include "serve/session.h"
#include "util/check.h"

namespace subfed {
namespace {

ExperimentSpec base_spec(const std::string& algo) {
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 20;
  spec.test_per_class = 4;
  spec.epochs = 1;
  spec.rounds = 3;
  spec.sample = 0.5;
  spec.eval_every = 1;
  spec.seed = 11;
  spec.algo = algo;
  return spec;
}

std::vector<std::uint8_t> checkpoint_of(FederationSession& session) {
  return encode_state_sections(session.algorithm().name(),
                               session.algorithm().checkpoint_state());
}

void expect_identical(const RunResult& a, const RunResult& b, const std::string& what) {
  ASSERT_EQ(a.curve.size(), b.curve.size()) << what;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].round, b.curve[i].round) << what;
    EXPECT_EQ(a.curve[i].avg_accuracy, b.curve[i].avg_accuracy) << what << " round "
                                                                << a.curve[i].round;
  }
  EXPECT_EQ(a.final_avg_accuracy, b.final_avg_accuracy) << what;
  EXPECT_EQ(a.final_per_client, b.final_per_client) << what;
  EXPECT_EQ(a.up_bytes, b.up_bytes) << what;
  EXPECT_EQ(a.down_bytes, b.down_bytes) << what;
  EXPECT_EQ(a.dropped_clients, b.dropped_clients) << what;
  EXPECT_EQ(a.skipped_rounds, b.skipped_rounds) << what;
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds) << what;
}

// --- lazy ≡ eager across the whole registry ---------------------------------

TEST(LazyStore, BitIdenticalToEagerForEveryRegistryAlgorithm) {
  for (const std::string& algo : list_algorithms()) {
    ExperimentSpec eager = base_spec(algo);
    ExperimentSpec lazy = base_spec(algo);
    lazy.client_cache = 2;  // far below the 6-client population: real thrash

    auto eager_session = FederationSession::from_spec(eager);
    const RunResult eager_result = eager_session->run_to_completion();
    auto lazy_session = FederationSession::from_spec(lazy);
    const RunResult lazy_result = lazy_session->run_to_completion();

    expect_identical(eager_result, lazy_result, algo);
    EXPECT_EQ(checkpoint_of(*eager_session), checkpoint_of(*lazy_session))
        << algo << ": checkpoint container diverged between residency modes";
  }
}

// --- eviction / refault determinism -----------------------------------------

TEST(LazyStore, ThrashingCacheSurvivesSaveRestoreBitExactly) {
  ExperimentSpec spec = base_spec("subfedavg_un");
  spec.rounds = 4;
  spec.client_cache = 1;  // every acquire evicts someone: maximum spill churn

  auto straight = FederationSession::from_spec(spec);
  for (int r = 0; r < 4; ++r) EXPECT_TRUE(straight->advance_round());
  const double straight_acc = straight->evaluate();

  const std::string path = "test_scale_thrash.ckpt";
  auto first = FederationSession::from_spec(spec);
  for (int r = 0; r < 2; ++r) EXPECT_TRUE(first->advance_round());
  first->save(path);
  auto resumed = FederationSession::from_spec(spec);
  resumed->restore(path);
  std::remove(path.c_str());
  for (int r = 0; r < 2; ++r) EXPECT_TRUE(resumed->advance_round());
  const double resumed_acc = resumed->evaluate();

  EXPECT_EQ(straight_acc, resumed_acc);
  EXPECT_EQ(checkpoint_of(*straight), checkpoint_of(*resumed))
      << "mid-run save/restore under a thrashing cache diverged";

  // The cache really was thrashing: clients came back from the spill store.
  auto* sub = dynamic_cast<SubFedAvg*>(&straight->algorithm());
  ASSERT_NE(sub, nullptr);
  EXPECT_GT(sub->client_refaults(), 0u);
}

TEST(LazyStore, EvaluationNeverWritesClientState) {
  ExperimentSpec spec = base_spec("subfedavg_un");
  spec.client_cache = 2;
  auto session = FederationSession::from_spec(spec);
  const double first = session->evaluate();
  EXPECT_EQ(session->evaluate(), first);
  // Evaluation reads each client's sections without storing them, so no
  // client was spilled for a later evaluation to reload.
  auto* sub = dynamic_cast<SubFedAvg*>(&session->algorithm());
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->client_refaults(), 0u);
}

TEST(LazyStore, SpillFileStaysWithinOneRecordPerClient) {
  auto sections_of = [](float value) {
    StateDict state;
    state.add("w", Tensor(Shape{1000}, value));
    return StateSections{state};
  };
  ClientStateStore store;
  store.init(3, sections_of(-1.0f), /*hot_capacity=*/1);
  std::vector<float> last(3, -1.0f);
  for (int round = 0; round < 50; ++round) {
    for (std::size_t k = 0; k < 3; ++k) {
      last[k] = static_cast<float>(3 * round) + static_cast<float>(k);
      store.put(k, sections_of(last[k]));
      // Reading the next client refaults it and spills the one just put.
      const std::size_t next = (k + 1) % 3;
      EXPECT_EQ((*store.read(next))[0][0].second[0], last[next]) << "round " << round;
    }
  }
  EXPECT_GT(store.spills(), 100u);
  const std::size_t record = encode_state_sections("client-0", sections_of(0.0f)).size();
  EXPECT_LE(store.spill_file_bytes(), 3 * record);
}

// --- data-level equality ------------------------------------------------------

TEST(LazyData, TensorsMatchEagerAcrossPartitioners) {
  for (const std::string& partition : {std::string("shards"), std::string("dirichlet")}) {
    ExperimentSpec spec = base_spec("fedavg");
    spec.clients = 8;
    spec.partition = partition;
    spec.alpha = 0.5;

    FederatedData eager(spec.dataset_spec(), spec.data_config());
    FederatedDataConfig lazy_config = spec.data_config();
    lazy_config.client_cache = 3;
    FederatedData lazy(spec.dataset_spec(), lazy_config);

    for (std::size_t k = 0; k < eager.num_clients(); ++k) {
      const ClientDataPtr e = eager.client_ptr(k);
      const ClientDataPtr l = lazy.client_ptr(k);
      EXPECT_EQ(e->train_images, l->train_images) << partition << " client " << k;
      EXPECT_EQ(e->train_labels, l->train_labels) << partition << " client " << k;
      EXPECT_EQ(e->val_images, l->val_images) << partition << " client " << k;
      EXPECT_EQ(e->val_labels, l->val_labels) << partition << " client " << k;
      EXPECT_EQ(e->labels_present, l->labels_present) << partition << " client " << k;
      ASSERT_EQ(e->test.size(), l->test.size()) << partition << " client " << k;
      for (std::size_t s = 0; s < e->test.size(); ++s) {
        EXPECT_EQ(e->test[s]->images, l->test[s]->images) << partition << " client " << k;
      }
    }
    // 8 clients through a 3-slot cache: the LRU must actually have evicted.
    EXPECT_GT(lazy.cache_evictions(), 0u) << partition;
    EXPECT_EQ(eager.cache_evictions(), 0u) << partition;
  }
}

TEST(LazyData, ConcurrentClientPtrAccessIsSafeAndPinned) {
  ExperimentSpec spec = base_spec("fedavg");
  spec.clients = 8;
  FederatedDataConfig config = spec.data_config();
  config.client_cache = 2;
  FederatedData data(spec.dataset_spec(), config);

  // Reference sizes, synthesized single-threaded.
  std::vector<std::size_t> train_sizes(data.num_clients());
  for (std::size_t k = 0; k < data.num_clients(); ++k) {
    train_sizes[k] = data.client_ptr(k)->train_labels.size();
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&data, &train_sizes, t] {
      for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t k = 0; k < data.num_clients(); ++k) {
          // Stagger the walk so threads fight over different LRU slots.
          const std::size_t c = (k + static_cast<std::size_t>(t)) % data.num_clients();
          const ClientDataPtr held = data.client_ptr(c);
          EXPECT_EQ(held->train_labels.size(), train_sizes[c]);
          EXPECT_GT(held->test_size(), 0u);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// --- event-driven rounds ------------------------------------------------------

ExperimentSpec event_spec() {
  ExperimentSpec spec = base_spec("fedavg");
  spec.clients = 8;
  spec.sample = 0.5;
  spec.arrivals = 3.0;  // ~3 arrivals per simulated second
  return spec;
}

TEST(EventRounds, DeterministicPerSeedAndBoundedByArrivals) {
  const ExperimentSpec spec = event_spec();
  auto a = FederationSession::from_spec(spec);
  auto b = FederationSession::from_spec(spec);

  std::size_t prev_arrived = 0;
  for (int r = 0; r < 5; ++r) {
    EXPECT_TRUE(a->advance_round());
    EXPECT_TRUE(b->advance_round());
    // Without dwell, presence only grows, and never past the population.
    EXPECT_GE(a->arrived_clients(), prev_arrived);
    EXPECT_LE(a->arrived_clients(), spec.clients);
    EXPECT_GT(a->arrived_clients(), 0u);
    prev_arrived = a->arrived_clients();
    EXPECT_EQ(a->arrived_clients(), b->arrived_clients());
  }
  EXPECT_EQ(a->evaluate(), b->evaluate());
  EXPECT_EQ(checkpoint_of(*a), checkpoint_of(*b));
  // Rounds before the first arrival fast-forward the clock, so simulated time
  // moved even though the byte-ledger round model contributes separately.
  EXPECT_GT(a->progress().simulated_seconds, 0.0);
}

TEST(EventRounds, DwellDrainsThePopulationIntoSkippedRounds) {
  ExperimentSpec spec = event_spec();
  spec.dwell = 1e-6;  // arrivals depart almost immediately: population drains
  auto session = FederationSession::from_spec(spec);

  std::size_t advanced = 0;
  std::size_t skipped = 0;
  // One arrival serves at most one round here, so 8 clients cannot fill 12.
  for (int r = 0; r < 12; ++r) {
    if (session->advance_round()) {
      ++advanced;
    } else {
      ++skipped;
    }
  }
  EXPECT_GT(advanced, 0u);
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(session->progress().skipped_rounds, skipped);
  EXPECT_EQ(session->round(), 12u);  // skipped rounds still count rounds
  EXPECT_EQ(session->arrived_clients(), 0u);
}

TEST(EventRounds, EventSessionsRefuseCheckpointing) {
  auto session = FederationSession::from_spec(event_spec());
  EXPECT_TRUE(session->advance_round());
  EXPECT_THROW(session->save("test_scale_event.ckpt"), CheckError);
  EXPECT_THROW(session->restore("test_scale_event.ckpt"), CheckError);
}

// --- spec plumbing ------------------------------------------------------------

TEST(ScaleSpec, KnobsRoundTripThroughKv) {
  ExperimentSpec spec = base_spec("fedavg");
  spec.client_cache = 7;
  spec.arrivals = 2.5;
  spec.dwell = 1.5;
  const ExperimentSpec back = ExperimentSpec::from_kv(spec.to_kv());
  EXPECT_EQ(back.client_cache, 7u);
  EXPECT_EQ(back.arrivals, 2.5);
  EXPECT_EQ(back.dwell, 1.5);
  EXPECT_EQ(back.to_kv(), spec.to_kv());
}

TEST(ScaleSpec, ValidateRejectsInconsistentEventKnobs) {
  ExperimentSpec spec = base_spec("fedavg");
  spec.dwell = 1.0;  // dwell without arrivals is meaningless
  EXPECT_THROW(spec.validate(), CheckError);

  spec = base_spec("fedavg");
  spec.arrivals = -1.0;
  EXPECT_THROW(spec.validate(), CheckError);

  spec = base_spec("fedavg");
  spec.arrivals = 2.0;
  spec.checkpoint_every = 1;  // event sessions do not checkpoint yet
  EXPECT_THROW(spec.validate(), CheckError);

  spec = base_spec("fedavg");
  spec.arrivals = 2.0;
  spec.serve = 1;  // resident service still runs the static loop
  spec.status_listen = "127.0.0.1:0";
  EXPECT_THROW(spec.validate(), CheckError);

  spec = base_spec("fedavg");
  spec.arrivals = 2.0;
  spec.dwell = 0.5;
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace subfed
