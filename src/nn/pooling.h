// Max pooling (square window, stride = window, no padding) — the only pooling
// variant the paper's models use (2×2).
#pragma once

#include <vector>

#include "nn/layer.h"

namespace subfed {

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "MaxPool2d"; }

 private:
  std::size_t window_;
  Shape input_shape_;
  /// Flat input index of each output element (train-mode forwards only).
  std::vector<std::size_t> argmax_;
};

}  // namespace subfed
