// BatchNorm2d.
//
// The scaling factor γ doubles as the channel-importance indicator for
// structured pruning (network slimming, Liu et al. 2017 — adopted by the
// paper §3.5). Training can add an L1 subgradient on γ (`l1_gamma`) to push
// unimportant channels toward zero, exactly as slimming prescribes.
#pragma once

#include "nn/layer.h"

namespace subfed {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::string name, std::size_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<Parameter*> buffers() override { return {&running_mean_, &running_var_}; }
  std::string kind() const override { return "BatchNorm2d"; }

  std::size_t channels() const noexcept { return channels_; }
  Parameter& gamma() noexcept { return gamma_; }
  Parameter& beta() noexcept { return beta_; }

  /// L1 sparsity penalty applied to γ gradients during backward (0 = off).
  void set_l1_gamma(float strength) noexcept { l1_gamma_ = strength; }
  float l1_gamma() const noexcept { return l1_gamma_; }

 private:
  std::size_t channels_;
  float momentum_, eps_;
  float l1_gamma_ = 0.0f;
  Parameter gamma_, beta_;
  Parameter running_mean_, running_var_;

  // Forward cache of the last train-mode forward, for backward; eval
  // forwards clear it.
  Tensor cached_input_;
  Tensor batch_mean_, batch_var_;  // [C]
};

}  // namespace subfed
