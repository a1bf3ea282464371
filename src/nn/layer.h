// Layer interface: explicit forward / backward with cached activations.
//
// The library uses per-layer analytic backward passes instead of a taped
// autograd: the paper's models are straight-line Sequential CNNs, and explicit
// backward keeps the hot path allocation-light and easy to verify against
// finite differences (see tests/test_nn_gradcheck.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/device.h"
#include "tensor/tensor.h"

namespace subfed {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Selects the device this layer's forward/backward run on; nullptr
  /// restores the process default. Only GEMM-backed layers (Conv2d, Linear)
  /// consult it, but it lives on the base so Model::set_device is uniform.
  void set_device(const Device* device) noexcept { device_ = device; }
  /// The active device: the explicit one, else default_device().
  const Device& device() const {
    return device_ != nullptr ? *device_ : default_device();
  }

  /// Computes the layer output. `train` toggles training-time behaviour
  /// (BatchNorm batch statistics). Only a training-mode forward caches what
  /// backward needs; an eval forward keeps nothing and drops any earlier
  /// cache, so backward after it throws CheckError.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after forward with matching shapes.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers). Pointers remain valid
  /// for the life of the layer.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Persistent non-learnable buffers (BatchNorm running stats).
  virtual std::vector<Parameter*> buffers() { return {}; }

  /// Human-readable kind, e.g. "Conv2d".
  virtual std::string kind() const = 0;

  /// Whether backward must return dLoss/dInput (default true). Model clears
  /// it on its first layer, whose input gradient nothing reads; Conv2d then
  /// skips that work and returns an empty tensor. Other layers ignore it.
  void set_needs_input_grad(bool needed) noexcept { needs_input_grad_ = needed; }
  bool needs_input_grad() const noexcept { return needs_input_grad_; }

 private:
  const Device* device_ = nullptr;  ///< nullptr → default_device()
  bool needs_input_grad_ = true;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace subfed
