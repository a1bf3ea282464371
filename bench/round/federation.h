// One workload's federation, driven through the public FederationSession API
// (from_spec → advance_round / evaluate → finish) and timed from outside.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fl/experiment.h"
#include "serve/session.h"
#include "workloads.h"

namespace subfed::bench {

/// The workload's spec at `seed` with the horizon as its round count and the
/// given telemetry level ("off" for timed runs, "trace" for traced ones).
ExperimentSpec workload_spec(const Workload& workload, std::uint64_t seed,
                             const std::string& telemetry);

/// Callbacks the traced run hangs around the loop. Everything except
/// on_cohort runs outside the timed regions.
class RoundHooks {
 public:
  virtual ~RoundHooks() = default;
  /// Before advance_round of 1-based round `round`.
  virtual void before_round(FederationSession& session, std::size_t round) {
    (void)session;
    (void)round;
  }
  /// From RoundObserver::on_round_begin, inside the timed round: keep cheap.
  virtual void on_cohort(std::span<const std::size_t> sampled) { (void)sampled; }
  /// After advance_round returned true, with its wall time.
  virtual void after_round(FederationSession& session, std::size_t round, double wall_s) {
    (void)session;
    (void)round;
    (void)wall_s;
  }
  /// After an evaluate().
  virtual void after_eval(FederationSession& session) { (void)session; }
};

struct RunOptions {
  /// Timed from_spec constructions after one discarded warm-up; the last one
  /// is the session that runs. 0 builds the session once, untimed.
  /// More are added, up to 101, until they sum to 0.5 s: a sub-millisecond
  /// setup needs more samples.
  std::size_t setup_reps = 5;
  /// Keep stepping past the horizon until the round loop has run this long.
  double seconds = 0.0;
};

struct FederationRun {
  std::vector<double> setup_s;   ///< timed constructions
  std::vector<double> round_s;   ///< every advance_round, horizon and beyond
  std::vector<double> eval_s;    ///< every evaluate, horizon and beyond
  std::size_t horizon_rounds = 0;
  /// Wall time of the session that ran, from from_spec through the horizon's
  /// rounds, evaluations and finish().
  double federation_s = 0.0;
  /// Σ epochs × train examples of the sampled clients over every timed round.
  double train_examples = 0.0;
  RunResult result;              ///< finish() at the horizon
  std::uint64_t horizon_bytes = 0;  ///< up + down ledger bytes at the horizon
  /// Mean committed pruned fractions over the clients trained at least once
  /// by the horizon (Sub-FedAvg).
  double weight_pruned = 0.0;
  double channel_pruned = 0.0;
  /// Operations are rounds, evaluations and the finish pass.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
};

/// Builds the session (with the setup repetitions), runs the horizon with the
/// spec's evaluation cadence, finishes, then keeps stepping until `seconds`.
/// An operation that throws ends the loop and is recorded as a failure.
FederationRun run_federation(const ExperimentSpec& spec, const RunOptions& options,
                             RoundHooks* hooks = nullptr);

/// ru_maxrss of this process, in MiB.
double peak_rss_mib();

}  // namespace subfed::bench
