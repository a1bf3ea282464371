// The paper's algorithms as FederatedAlgorithm implementations:
// Sub-FedAvg (Un) — Algorithm 1 — and Sub-FedAvg (Hy) — Algorithm 2.
//
// The server aggregates sampled clients' uploads with per-parameter counting
// over retained entries (core/aggregate.h) and keeps its previous value for
// entries no sampled client retained.
//
// Between calls a client exists only as its three sections in a
// ClientStateStore: {personal model, weight mask, channel mask}. A round
// reads them, builds a transient SubFedAvgClient, runs Algorithm 1 or 2 and
// writes them back; evaluation builds a model and loads the personal section
// without writing anything, and is skipped while the client's store version
// is unchanged (FederatedAlgorithm::all_test_accuracies); the pre-round
// download mask comes straight from the stored masks. The per-client RNG is
// re-derived from (seed, k), so the sections are the client's whole state.
// ctx.client_cache bounds the store's resident clients and spills the rest
// bit-exactly (fl/client_state.h); at 0 every touched client's sections stay
// resident.
#pragma once

#include <optional>

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
  /// Client k rebuilt from its stored sections. The reference stays valid
  /// until the NEXT client() call, which replaces it; callers iterating
  /// clients must not hold references across calls.
  SubFedAvgClient& client(std::size_t k);

  /// Mean committed pruned fractions across clients, from the fractions
  /// recorded whenever a client's sections are written.
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

  /// Client sections reloaded from the store's spill file (lazy-mode
  /// observability).
  std::size_t client_refaults() const noexcept { return store_.refaults(); }

 private:
  /// The store version of client k: its accuracy reads only the personal
  /// section and its test slices.
  std::optional<std::uint64_t> evaluation_key(std::size_t k) override;
  /// Throws CheckError unless `sections` match the initial sections' layout:
  /// three sections with the same entry names and shapes (for the channel
  /// mask: block count and block sizes). Guards every outside input.
  void check_layout(std::span<const StateDict> sections) const;
  ChannelMask channel_mask_of(const StateDict& section) const;
  /// Channel mask ⊗ weight mask of stored sections: the client's upload mask.
  ModelMask upload_mask(const StateSections& sections);
  SubFedAvgClient make_client(std::size_t k, StateSections sections) const;
  /// Stores client k's sections and records their committed pruned fractions.
  void put_client(std::size_t k, StateSections sections);

  SubFedAvgConfig config_;
  StateDict global_;
  bool strict_ = false;
  std::size_t filtered_updates_ = 0;

  /// The architecture, for expanding channel masks; never trained.
  Model arch_;
  /// Every client's sections; untouched clients resolve to the shared
  /// initial sections {θ_0, ones, ones}.
  ClientStateStore store_;
  /// The most recent client() return.
  std::optional<SubFedAvgClient> pinned_;
  /// Committed pruned fractions per client, so average_*_pruned() reads
  /// O(N) doubles instead of every client's masks.
  std::vector<double> frac_us_;
  std::vector<double> frac_s_;
};

}  // namespace subfed
