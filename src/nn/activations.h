// Elementwise activation layers.
#pragma once

#include "nn/layer.h"

namespace subfed {

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "ReLU"; }

 private:
  Tensor mask_;  // 1 where input > 0 (train-mode forwards only)
};

/// Reshapes NCHW activations to (N, C·H·W) for the FC head.
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "Flatten"; }

 private:
  Shape input_shape_;
};

}  // namespace subfed
