// FedAvg (McMahan et al. 2017) and FedProx (Li et al. 2018) baselines.
//
// FedProx is FedAvg plus a proximal pull μ(w − w_global) added to every
// gradient step, implemented through the trainer's grad hook. Both exchange
// dense global states through the message channel: broadcast down, trained
// state up, aggregation example-count weighted.
#pragma once

#include "core/aggregate.h"
#include "fl/algorithm.h"

namespace subfed {

class FedAvg : public FederatedAlgorithm {
 public:
  explicit FedAvg(FlContext ctx);

  std::string name() const override { return "FedAvg"; }
  void run_round(std::size_t round, std::span<const std::size_t> sampled) override;
  /// Stateless client: trains from `received`, uploads the result. Runs
  /// unchanged on remote workers (no side-band state either way).
  ClientResult run_client(std::size_t round, const ClientJob& job,
                          const StateDict& received) override;
  double client_test_accuracy(std::size_t k) override;

  /// Checkpoint layout: one section, the global model.
  std::vector<StateDict> checkpoint_state() override;
  void restore_checkpoint_state(std::vector<StateDict> sections) override;

  const StateDict& global_state() const noexcept { return global_; }
  StateDict global_model() override { return global_; }

  /// Robustness counters (ctx.corrupt_fraction / ctx.robust_filter): uploads
  /// the channel replaced by noise, and updates the norm filter discarded.
  std::size_t corrupted_updates() const noexcept { return channel_->corrupted_updates(); }
  std::size_t filtered_updates() const noexcept { return filtered_updates_; }

 protected:
  /// Per-client gradient hook, anchored on the broadcast the client received
  /// (identical to the true global under lossless codecs); base FedAvg uses
  /// none.
  virtual GradHook make_grad_hook(const StateDict& received) {
    (void)received;
    return {};
  }

  StateDict global_;

 private:
  std::size_t filtered_updates_ = 0;
};

class FedProx final : public FedAvg {
 public:
  FedProx(FlContext ctx, double mu);

  std::string name() const override { return "FedProx"; }

 protected:
  GradHook make_grad_hook(const StateDict& received) override;

 private:
  double mu_;
};

}  // namespace subfed
