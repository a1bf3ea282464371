// The paper's algorithms as FederatedAlgorithm implementations:
// Sub-FedAvg (Un) — Algorithm 1 — and Sub-FedAvg (Hy) — Algorithm 2.
//
// The server aggregates sampled clients' uploads with per-parameter counting
// over retained entries (core/aggregate.h) and keeps its previous value for
// entries no sampled client retained.
//
// Client residency is lazy: a SubFedAvgClient object (model buffers, data
// pin, masks) exists only while its client is hot. With ctx.client_cache > 0
// the live set is LRU-bounded; evicted clients spill their 3-section mirror
// {personal model, weight mask, channel mask} into a ClientStateStore and are
// reconstructed bit-exactly on the next touch (SubFedAvgClient::restore
// recomputes the pruned fractions from the masks, and the per-client RNG is
// re-derived from (seed, k), so nothing is lost). At the default cache of 0
// every touched client stays live — the historical behavior.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/subfedavg_client.h"
#include "fl/algorithm.h"
#include "fl/client_state.h"
#include "metrics/flops.h"

namespace subfed {

class SubFedAvg final : public FederatedAlgorithm {
 public:
  /// `config.hybrid` selects Algorithm 2; otherwise Algorithm 1. The train /
  /// sgd settings of `ctx` are copied into the client config.
  SubFedAvg(FlContext ctx, SubFedAvgConfig config);

  std::string name() const override;
  void run_round(std::size_t round, std::span<const std::size_t> sampled) override;
  /// Installs the inbound client mirror (remote exchanges), runs the client's
  /// prune-train-upload round, ships the refreshed mirror back when detached.
  ClientResult run_client(std::size_t round, const ClientJob& job, const StateDict& received,
                          bool detached) override;
  /// {personal model, weight mask, channel mask} — what a remote exchange
  /// ships down so the worker's mirror matches this process's.
  std::vector<StateDict> client_state_sections(std::size_t k) override;
  double client_test_accuracy(std::size_t k) override;

  /// Checkpoint layout: the global state, then per client {personal model,
  /// weight mask, channel mask}.
  std::vector<StateDict> checkpoint_state() override;
  void restore_checkpoint_state(std::vector<StateDict> sections) override;

  const StateDict& global_state() const noexcept { return global_; }
  StateDict global_model() override { return global_; }
  /// Materializes client k if needed. The reference stays valid until the
  /// NEXT client() call (a one-slot pin protects it from LRU eviction);
  /// callers iterating clients must not hold references across calls.
  SubFedAvgClient& client(std::size_t k);

  /// Mean committed pruned fractions across clients (live clients answer
  /// directly, evicted ones from the fraction snapshot taken at eviction —
  /// no client needs materializing).
  double average_unstructured_pruned() const;
  double average_structured_pruned() const;

  /// FLOP / parameter reduction of client k's current subnetwork.
  ReductionReport client_reduction(std::size_t k);

  /// Use the strict-intersection aggregation ablation instead of counting.
  void set_strict_intersection(bool strict) noexcept { strict_ = strict; }

  bool hybrid() const noexcept { return config_.hybrid; }

  /// Robustness counters, mirroring the FedAvg family: uploads the channel
  /// replaced by noise, and updates the mask-aware norm filter discarded.
  std::size_t corrupted_updates() const noexcept { return channel_->corrupted_updates(); }
  std::size_t filtered_updates() const noexcept { return filtered_updates_; }

  /// Clients reconstructed from the spill store (lazy-mode observability).
  std::size_t client_refaults() const noexcept { return refaults_; }

 private:
  /// Returns the live client for k, constructing (and restoring from the
  /// store when previously evicted) on demand; bounds the live set.
  std::shared_ptr<SubFedAvgClient> acquire(std::size_t k);
  /// LRU-evicts live clients past the cap into the store. Caller holds
  /// cache_mutex_. Never evicts `keep` or a client another thread still uses.
  void evict_overflow_locked(std::size_t keep);

  /// {personal model, weight mask, channel mask} of client k — the same
  /// 3-section layout checkpoint_state uses per client, reused as the
  /// side-band mirror a detached (subprocess) round ships back.
  std::vector<StateDict> client_sections(std::size_t k);
  /// Same encoding from a live object (also the eviction spill path).
  static std::vector<StateDict> sections_of(const SubFedAvgClient& client);
  void restore_client_sections(std::size_t k, std::span<StateDict> sections);

  SubFedAvgConfig config_;
  StateDict global_;
  bool strict_ = false;
  std::size_t filtered_updates_ = 0;

  /// Live client objects (model buffers pinned), LRU-bounded when
  /// ctx_.client_cache > 0; front of lru_ is most recent.
  mutable std::mutex cache_mutex_;
  std::unordered_map<std::size_t, std::shared_ptr<SubFedAvgClient>> live_;
  std::list<std::size_t> lru_;
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> lru_it_;
  /// Keeps the most recent client() return alive across eviction.
  std::shared_ptr<SubFedAvgClient> pinned_;
  /// Section mirrors of evicted clients; untouched clients resolve to the
  /// shared initial sections {θ_0, ones, ones}.
  ClientStateStore store_;
  std::size_t refaults_ = 0;

  /// Committed pruned fractions of EVICTED clients, snapshotted as they
  /// spill (live clients are read directly) — keeps average_*_pruned() O(N)
  /// doubles instead of forcing every client resident.
  std::vector<double> frac_us_;
  std::vector<double> frac_s_;
};

}  // namespace subfed
