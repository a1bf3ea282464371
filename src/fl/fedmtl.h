// Federated multi-task learning baseline (Smith et al. 2017, MOCHA).
//
// MOCHA's primal-dual solver targets convex models; for the paper's CNNs we
// use the standard non-convex MTL surrogate (as in the pFedMe/Ditto line of
// work): each client k keeps a personal model w_k and every local gradient
// step is pulled toward the federation mean w̄ by a task-relationship term
// λ(w_k − w̄). Clients additionally exchange dual/relationship state, which
// is what makes MTL the most communication-hungry row of Table 1 — carried
// on the wire as one extra model-sized payload section per direction per
// round. (Substitution documented in DESIGN.md §1.)
#pragma once

#include "fl/algorithm.h"

namespace subfed {

class FedMtl final : public FederatedAlgorithm {
 public:
  FedMtl(FlContext ctx, double lambda);

  std::string name() const override { return "MTL"; }
  void run_round(std::size_t round, std::span<const std::size_t> sampled) override;
  /// λ-pulls the client's personal model toward the received mean, uploads
  /// model + dual state. Client sections: one, the personal model.
  ClientResult run_client(std::size_t round, const ClientJob& job,
                          const StateDict& received) override;
  double client_test_accuracy(std::size_t k) override;

  /// Checkpoint layout: the base's, one section per client; w̄ is recomputed
  /// on restore.
  void restore_checkpoint_state(std::vector<StateDict> sections) override;

 private:
  /// The store version of client k: its accuracy reads only its personal
  /// model, never the mean.
  std::optional<std::uint64_t> evaluation_key(std::size_t k) override;
  void recompute_mean();

  double lambda_;
  StateDict mean_;  ///< federation mean w̄ over all clients
};

}  // namespace subfed
