// FederationSession: one federation, advanced one round at a time.
//
// The session is the piece execute_experiment and the resident server share:
// it owns (or borrows) the algorithm plus every bit of round-loop state the
// old monolithic run_federation kept in locals — the sampling and dropout RNG
// streams, the round counter, the accuracy curve, the dropout/skip accounting
// and the simulated clock — so a federation can be
//
//   * run to completion in one call (batch mode: run_to_completion is
//     bit-identical to the pre-session run_federation loop),
//   * stepped round by round under external control (the resident server
//     ticks advance_round whenever enough workers are connected), and
//   * checkpointed/restored MID-FEDERATION: save() wraps the algorithm's
//     versioned checkpoint container with the session's own round counter,
//     accounting and sampling/dropout engine states, and restore() puts the
//     engines back so round k+1 of a restored session is bit-identical to
//     round k+1 of an uninterrupted run.
//
// from_spec() is the single spec→running-federation build path; the tcp
// worker's mirror (fl/worker.cpp) goes through mirror_from_kv() so both sides
// of a remote federation are built by the same code.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fl/experiment.h"
#include "util/rng.h"

namespace subfed {

class FederationSession {
 public:
  /// Borrows an externally owned algorithm (run_federation's path). The
  /// algorithm must outlive the session. Honors config.link_spread exactly
  /// like the old driver loop (a non-default value rebuilds the link fleet).
  FederationSession(FederatedAlgorithm& algorithm, const DriverConfig& config);

  /// The spec→running-federation build path shared by execute_experiment, the
  /// resident server, and the tcp worker's mirror: synthesizes the federation
  /// data (unless `shared_data` provides a cached copy built from THIS spec's
  /// dataset_spec()/data_config()), builds the context and the algorithm
  /// through the registry, and wires the driver config. Validates the spec
  /// first (throws CheckError on misconfiguration, including the
  /// corruption-knobs-on-unsupporting-algorithm rule).
  static std::unique_ptr<FederationSession> from_spec(
      const ExperimentSpec& spec, const FederatedData* shared_data = nullptr);

  /// The worker-mirror spec for a coordinator's session blob: the same
  /// federation rebuilt for the connect side — loopback channel (payloads
  /// materialize exactly like the coordinator's tcp channel, without opening
  /// sockets), no coordinator-side outputs, no resident service.
  static ExperimentSpec mirror_spec(const std::string& kv);
  /// from_spec over mirror_spec: how a tcp worker builds its federation from
  /// the kSetup blob.
  static std::unique_ptr<FederationSession> mirror_from_kv(const std::string& kv);

  FederationSession(const FederationSession&) = delete;
  FederationSession& operator=(const FederationSession&) = delete;

  FederatedAlgorithm& algorithm() noexcept { return *algorithm_; }
  const DriverConfig& config() const noexcept { return config_; }
  /// Rounds advanced so far (including dropout-skipped ones) — the 1-based
  /// number of the most recently finished round, monotone across restores.
  std::size_t round() const noexcept { return round_; }
  /// Event-driven mode only: clients currently arrived and not departed
  /// (always 0 in the static-population default).
  std::size_t arrived_clients() const noexcept { return arrived_.size(); }
  /// True when arrivals come over simulated time — from the exponential
  /// process (arrivals > 0) or an arrival_trace replay file.
  bool event_driven() const noexcept { return event_driven_; }

  /// Host wall-clock phase breakdown of the round loop, in seconds — the six
  /// phases the telemetry trace spans record. All zeros when telemetry is off
  /// (the stopwatches never read the clock), so the accounting itself is
  /// near-free when disabled. `aggregate` is the round's wall time not spent
  /// in the channel's encode/exchange/collect phases — i.e. the algorithm's
  /// server-side work.
  struct RoundPhases {
    double sample = 0.0;             ///< cohort sampling + dropout draws
    double broadcast_encode = 0.0;   ///< channel broadcast-encode fan-out
    double transport_exchange = 0.0; ///< transport round-trip (client compute)
    double collect = 0.0;            ///< reply decode + round bookkeeping
    double aggregate = 0.0;          ///< algorithm server-side aggregation
    double eval = 0.0;               ///< full-federation evaluation passes
  };
  /// Most recent round (its evaluation included when one ran after it).
  const RoundPhases& last_phases() const noexcept { return last_phases_; }
  /// Accumulated across every round this session advanced.
  const RoundPhases& total_phases() const noexcept { return total_phases_; }
  /// Round-loop accounting so far (curve, dropout casualties, simulated
  /// clock). up/down byte totals are only filled in by finish().
  const RunResult& progress() const noexcept { return result_; }
  /// Cumulative federation traffic: the live ledger plus the totals carried
  /// over from restored checkpoints — the monotone counters kStatus reports.
  std::uint64_t total_up_bytes() const noexcept;
  std::uint64_t total_down_bytes() const noexcept;

  /// Advances one round: samples clients, applies dropout, runs the
  /// algorithm's round, fires `observer`'s begin/end hooks. Returns false when
  /// every sampled client dropped out (the round is counted but skipped —
  /// neither hook fires, matching the old driver loop). Does NOT evaluate.
  bool advance_round(RoundObserver* observer = nullptr);

  /// Full-federation evaluation: appends a curve point for the current round,
  /// logs it, fires on_eval. Returns the average personalized accuracy.
  double evaluate(RoundObserver* observer = nullptr);

  /// Fills the final per-client accuracies and byte totals, fires on_run_end,
  /// and returns the completed result. The session stays steppable.
  RunResult finish(RoundObserver* observer = nullptr);

  /// Batch mode: advance to config.rounds, evaluating every eval_every rounds
  /// and after the last round, then finish. Bit-identical to the historical
  /// run_federation loop. Throws CheckError when config.rounds == 0 (a
  /// resident session has no horizon — step it with advance_round instead).
  RunResult run_to_completion(RoundObserver* observer = nullptr);

  /// Snapshots the session — round counter, accounting, cumulative traffic,
  /// the sampling and dropout engines, and the algorithm's full checkpoint
  /// sections — to `path` (SFSN version 2), atomically
  /// (temp file + rename, so a crash mid-write can never corrupt the latest
  /// checkpoint). Throws CheckError on I/O failure.
  void save(const std::string& path);

  /// Inverse of save into a session built from the SAME spec/config: restores
  /// the algorithm state, the round counter and accounting, and the sampling
  /// and dropout engines, so the next advance_round is bit-identical to an
  /// uninterrupted run's. Throws CheckError on a corrupt file (version-1
  /// files included), an algorithm mismatch, or (when both sessions carry
  /// spec blobs) a spec mismatch.
  void restore(const std::string& path);

 private:
  FederationSession() = default;

  void init_streams();

  /// Event-driven mode: drains arrival/departure events up to the simulated
  /// clock (fast-forwarding to the next arrival when nobody is present) and
  /// samples this round's cohort among arrived clients. Returns false when
  /// the population has drained — every client arrived and departed.
  bool event_cohort(std::vector<std::size_t>& sampled);
  /// Applies every arrival, then every departure, with timestamp <= now
  /// (arrivals first, so a client arriving as another departs is available).
  void process_events(double now);
  /// i-th arriving client: an affine permutation of [0, N) — O(1) memory at
  /// any population size.
  std::size_t arrival_client(std::size_t i) const noexcept;
  /// Total arrivals this session will ever issue: the population, capped at
  /// the arrival-trace line count when replaying a trace.
  std::size_t arrival_budget() const noexcept;

  // Owned storage when built from a spec (teardown order: algorithm first —
  // it holds a pointer into data_).
  std::unique_ptr<const FederatedData> data_;
  std::unique_ptr<FederatedAlgorithm> owned_algorithm_;
  FederatedAlgorithm* algorithm_ = nullptr;

  DriverConfig config_;
  std::string spec_kv_;  ///< to_kv of the building spec; empty when borrowed
  std::size_t per_round_ = 1;  ///< sampled clients per round

  Rng sample_rng_{0};
  Rng dropout_rng_{0};

  // Event-driven population state (event_driven_; all O(active)).
  bool event_driven_ = false;     ///< arrivals > 0 or an arrival_trace replay
  std::vector<double> trace_times_;  ///< arrival_trace timestamps (sorted)
  Rng arrival_rng_{0};            ///< exponential interarrival draws
  std::uint64_t perm_a_ = 1;      ///< affine arrival-order permutation σ(i) = a·i + b mod N
  std::uint64_t perm_b_ = 0;
  std::size_t next_arrival_ = 0;  ///< arrivals issued so far
  double next_arrival_time_ = 0.0;
  std::vector<std::size_t> arrived_;  ///< present clients, swap-removed on departure
  std::unordered_map<std::size_t, std::size_t> position_;  ///< client → arrived_ index
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>,
                      std::greater<std::pair<double, std::size_t>>>
      departures_;

  std::size_t round_ = 0;
  RunResult result_;
  RoundPhases last_phases_;
  RoundPhases total_phases_;
  /// Traffic carried over from restored checkpoints (the live ledger restarts
  /// at zero after a crash; these keep the served counters monotone).
  std::uint64_t base_up_bytes_ = 0;
  std::uint64_t base_down_bytes_ = 0;
};

}  // namespace subfed
