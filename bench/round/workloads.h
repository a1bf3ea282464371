// The round benchmark's four workloads (why each exists: README.md and
// BENCHMARK.json).
//
// Every workload is a closed loop: one coordinator advances the federation
// round by round, and the next round starts only when the previous one ends.
// All four share batch 10, lr 0.01 and momentum 0.5 (paper §4.1). The seed
// comes from the command line; the program receives only the resulting spec.
#pragma once

#include <cstddef>
#include <string>

namespace subfed::bench {

/// Rounds whose outputs are checked and reported (final accuracy, bytes). A
/// run keeps stepping the same federation past the horizon until it has
/// measured for --seconds, so later rounds only add timing samples.
inline constexpr std::size_t kHorizon = 40;

/// The traced run probes the cohorts of every kProbeEvery-th round.
inline constexpr std::size_t kProbeEvery = 10;

/// Which committed pruning the output check requires to reach 0.45 on the
/// clients the federation trained.
enum class PruneCheck { kNone, kWeights, kChannels };

struct Workload {
  const char* name;
  /// ExperimentSpec key=value lines (the seed and the horizon are added by
  /// workload_spec).
  const char* spec;
  /// Output checks on the horizon's mean personalized accuracy: at least
  /// min_final_acc on every seed (the lowest of seeds 1-20, less a margin),
  /// and at most 0.02 below seed1_final_acc at seed 1.
  double min_final_acc;
  double seed1_final_acc;
  PruneCheck prune;
};

// The paper's 100 clients with scaled 50-example shards, 4 clients per round,
// 5 local epochs.
#define SUBFED_BENCH_POPULATION \
  "clients=100\nshard=50\nsample=0.04\nepochs=5\nbatch=10\nlr=0.01\nmomentum=0.5\n"

inline constexpr Workload kWorkloads[] = {
    // Algorithm 1: local training plus magnitude masks, no wire bytes.
    {"un_mnist",
     "dataset=mnist\nalgo=subfedavg_un\n" SUBFED_BENCH_POPULATION
     "target=0.5\nstep=0.5\ntransport=memory\neval_every=2\n",
     0.65, 0.748125, PruneCheck::kWeights},
    // Algorithm 2: half the conv channels masked. channel_epsilon=0 because at
    // the default 0.05 the structured gate stalls near 24% of channels here.
    {"hy_cifar10",
     "dataset=cifar10\nalgo=subfedavg_hy\n" SUBFED_BENCH_POPULATION
     "target=0.5\nstep=0.5\nalgo.channel_target=0.5\nalgo.channel_step=0.5\n"
     "algo.channel_epsilon=0\ntransport=memory\neval_every=2\n",
     0.55, 0.6790625, PruneCheck::kChannels},
    // The dense baseline on un_mnist's shapes: no masks, no pruning.
    {"fedavg_mnist",
     "dataset=mnist\nalgo=fedavg\n" SUBFED_BENCH_POPULATION "transport=memory\neval_every=2\n",
     0.40, 0.775, PruneCheck::kNone},
    // Light training; codecs, the lazy data/state store, aggregation and
    // evaluation carry the cost. epochs=2: with one epoch the first- and
    // last-epoch masks coincide, so the mask distance is 0 and pruning never
    // commits.
    {"lazy_wire",
     "dataset=mnist\nalgo=subfedavg_un\nclients=300\nclient_cache=64\nshard=20\nsample=0.067\n"
     "epochs=2\nbatch=10\nlr=0.01\nmomentum=0.5\ntarget=0.5\nstep=0.5\ntransport=loopback\n"
     "codec=delta\nquantize=int8\neval_every=5\n",
     0.68, 0.7959375, PruneCheck::kWeights},
};

#undef SUBFED_BENCH_POPULATION

inline const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace subfed::bench
