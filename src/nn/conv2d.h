// 2-D convolution (square kernel) via batched im2col + GEMM: the whole batch
// is unrolled into one [C·K·K, N·outH·outW] patch matrix so each pass is a
// single large GEMM on the layer's Device instead of a per-sample loop.
//
// Live-channel execution: every call reads its own operands to find the
// channels that can contribute — output channels whose weight row (forward)
// or dY row (backward) is not all zero; input channels whose plane is not
// all zero in some sample of the batch (forward and dW; eval forwards also
// drop planes no weight reads) or, for dX, that some weight reads — and runs
// im2col, the GEMMs and col2im on gathered panels of just those, writing
// exact zeros (plus bias) elsewhere. Structured pruning zeroes whole filters
// and their downstream input planes, so a half-width client does about
// half-width work. The dropped terms are exact zeros and each output keeps
// its ascending-k accumulation, so for finite operands results are
// bit-identical to the full-width computation. No live set is cached across
// calls: SGD can move an unmasked zero weight without a pruning pass.
#pragma once

#include <vector>

#include "nn/layer.h"
#include "tensor/device.h"
#include "tensor/gemm.h"

namespace subfed {

class Rng;

class Conv2d final : public Layer {
 public:
  /// Weight shape [out_channels, in_channels, kernel, kernel]; bias [out_channels].
  Conv2d(std::string name, std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride = 1, std::size_t pad = 0);

  /// Kaiming-normal weight init, zero bias.
  void init(Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  /// Returns an empty tensor when needs_input_grad() is off (first layer).
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string kind() const override { return "Conv2d"; }

  std::size_t in_channels() const noexcept { return in_channels_; }
  std::size_t out_channels() const noexcept { return out_channels_; }
  std::size_t kernel() const noexcept { return kernel_; }
  std::size_t stride() const noexcept { return stride_; }
  std::size_t pad() const noexcept { return pad_; }

  Parameter& weight() noexcept { return weight_; }
  Parameter& bias() noexcept { return bias_; }

 private:
  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;  // [N, C, H, W] saved by forward for backward
  /// im2col patches [live_inputs_·K·K × N·spatial] of the last train-mode
  /// forward, leased from the layer's device and held for backward: whenever
  /// cached_input_ is non-empty, `columns_` holds exactly that input's
  /// patches for the channels in `live_inputs_` — every channel whose plane
  /// is nonzero, which is all dW needs — so backward never recomputes the
  /// im2col. Eval forwards release both. All other scratch (the eval patch
  /// panel, gathered weights, GEMM outputs, packed grads) is leased per call
  /// and returned to the device pool on scope exit.
  WorkspaceLease columns_;
  std::vector<std::size_t> live_inputs_;  ///< input channels unrolled in columns_
};

}  // namespace subfed
