// 2-D convolution (square kernel) over a whole batch at once. On the blocked
// device a stride-1 layer runs direct kernels that read each patch straight
// from the input (Device::conv_forward / conv_weight_grad); elsewhere the
// batch is unrolled into one [C·K·K, N·outH·outW] patch matrix for a single
// GEMM. Both paths compute the same chains, so they agree bit for bit; dX
// is always a GEMM followed by col2im.
//
// Live-channel execution: every call reads its own operands to find the
// channels that can contribute — output channels whose weight row (forward)
// or dY row (backward) is not all zero; input channels whose plane is not
// all zero in some sample of the batch (forward and dW; eval forwards also
// drop planes no weight reads) or, for dX, that some weight reads — and runs
// the kernels on gathered panels of just those, writing exact zeros (plus
// bias) elsewhere. Structured pruning zeroes whole filters and their
// downstream input planes, so a half-width client does about half-width
// work. The dropped terms are exact zeros and each output keeps its
// ascending-k accumulation, so for finite operands results are
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
  /// [N, C, H, W] saved by a train forward for backward; an eval forward
  /// clears it. All scratch (patch panels, gathered weights, GEMM outputs,
  /// packed grads) is leased per call and returned to the device pool on
  /// scope exit, so nothing else is held from forward to backward.
  Tensor cached_input_;
};

}  // namespace subfed
