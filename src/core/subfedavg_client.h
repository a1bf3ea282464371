// Client-side Sub-FedAvg: Algorithms 1 (unstructured) and 2 (hybrid).
//
// Per communication round a sampled client:
//  1. downloads θ_g and personalizes it with its OWN mask (θ_g ⊙ m_k —
//     entries this client pruned stay zero; Remark-1),
//  2. trains locally (masked gradients keep pruned weights frozen),
//  3. derives candidate masks at the end of the FIRST and LAST local epoch
//     (magnitude masks for unstructured; BN-|γ| channel masks for structured),
//  4. opens the pruning gate(s): validation accuracy ≥ Accth, target rate not
//     reached, and mask distance Δ ≥ ε — structured and unstructured gates
//     are evaluated independently in hybrid mode (§3.5),
//  5. commits the last-epoch mask(s) when gated open, applies them, and
//     uploads (masked weights, mask).
#pragma once

#include <cstdint>
#include <optional>

#include "core/aggregate.h"
#include "data/client_data.h"
#include "nn/model_zoo.h"
#include "nn/trainer.h"
#include "pruning/gate.h"
#include "pruning/structured.h"
#include "util/rng.h"

namespace subfed {

struct SubFedAvgConfig {
  /// Unstructured gate: target p_us, per-round rate r_us, ε_us, Accth.
  PruneGateConfig unstructured{0.5, 0.5, 1e-4, 0.1};
  /// Structured gate (hybrid mode only): target p_s, rate r_s, ε_s, Accth.
  PruneGateConfig structured{0.5, 0.5, 0.05, 0.2};
  bool hybrid = false;   ///< Algorithm 2: channel pruning + FC-only unstructured
  float bn_l1 = 1e-4f;   ///< network-slimming γ penalty (hybrid mode)
  TrainConfig train{};   ///< paper: 5 local epochs, batch 10
  SgdConfig sgd{};       ///< paper: lr 0.01, momentum 0.5
};

/// Result of one client round, for round-level reporting.
struct ClientRoundReport {
  double val_accuracy = 0.0;
  double train_loss = 0.0;
  double mask_distance_us = 0.0;
  double mask_distance_s = 0.0;
  bool pruned_us = false;
  bool pruned_s = false;
  double pruned_fraction_us = 0.0;  ///< committed, after this round
  double pruned_fraction_s = 0.0;
};

class SubFedAvgClient {
 public:
  SubFedAvgClient(std::size_t id, const ModelSpec& spec, SubFedAvgConfig config,
                  ClientDataPtr data, Rng rng);
  /// Convenience for call sites holding eager data by reference; the pointer
  /// must outlive the client (non-owning).
  SubFedAvgClient(std::size_t id, const ModelSpec& spec, SubFedAvgConfig config,
                  const ClientData* data, Rng rng)
      : SubFedAvgClient(id, spec, std::move(config), ClientDataPtr(ClientDataPtr{}, data),
                        rng) {}

  /// Rebuilds a client from its stored state. The personal state and masks
  /// must match `spec` (fl/subfedavg.cpp checks them on input); the pruned
  /// fractions are recomputed from the masks.
  SubFedAvgClient(std::size_t id, const ModelSpec& spec, SubFedAvgConfig config,
                  ClientDataPtr data, Rng rng, StateDict personal, ModelMask weight_mask,
                  ChannelMask channel_mask);

  /// Sets the client's personal model (used before round 0 so never-sampled
  /// clients evaluate the initial global model rather than a blank template).
  void seed_personal(const StateDict& state);

  /// Executes one local round starting from the global state; returns the
  /// upload (masked state + mask) and fills `report`.
  ClientUpdate run_round(const StateDict& global, std::size_t round,
                         ClientRoundReport* report = nullptr);

  /// Personalized accuracy: the client's latest trained (masked) model on its
  /// label-filtered test set.
  EvalStats evaluate_test();
  /// Same model on the local validation split.
  EvalStats evaluate_val();

  std::size_t id() const noexcept { return id_; }
  double unstructured_pruned() const noexcept { return pruned_us_; }
  double structured_pruned() const noexcept { return pruned_s_; }
  const ModelMask& weight_mask() const noexcept { return weight_mask_; }
  const ChannelMask& channel_mask() const noexcept { return channel_mask_; }
  /// Channel mask ⊗ unstructured mask, as uploaded.
  ModelMask combined_mask();
  const StateDict& personal_state() const noexcept { return personal_state_; }

 private:
  std::size_t id_;
  ModelSpec spec_;
  SubFedAvgConfig config_;
  ClientDataPtr data_;  ///< pins lazily-materialized data while the client lives
  Rng rng_;

  Model model_;                 ///< reused across rounds/evals
  StateDict personal_state_;    ///< latest trained masked state
  ModelMask weight_mask_;       ///< committed unstructured mask
  ChannelMask channel_mask_;    ///< committed structured mask (hybrid)
  double pruned_us_ = 0.0;
  double pruned_s_ = 0.0;
};

}  // namespace subfed
