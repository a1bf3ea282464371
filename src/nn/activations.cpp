#include "nn/activations.h"

#include "util/check.h"

namespace subfed {

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor output = input;
  // The mask exists only for backward; inference keeps none.
  mask_ = train ? Tensor(input.shape()) : Tensor();
  // Raw pointers: the checked operator[] costs more than the compare itself.
  float* out = output.data();
  float* mask = train ? mask_.data() : nullptr;
  for (std::size_t i = 0, count = output.numel(); i < count; ++i) {
    const bool positive = out[i] > 0.0f;
    if (mask != nullptr) mask[i] = positive ? 1.0f : 0.0f;
    out[i] = positive ? out[i] : 0.0f;
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(grad_output.numel() == mask_.numel(), "relu backward before forward");
  Tensor grad_input = grad_output;
  grad_input.mul_(mask_);
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input, bool /*train*/) {
  SUBFEDAVG_CHECK(input.shape().rank() >= 2, "flatten needs a batch dim");
  input_shape_ = input.shape();
  const std::size_t batch = input.shape()[0];
  Tensor output = input;
  output.reshape({batch, input.numel() / batch});
  return output;
}

Tensor Flatten::backward(const Tensor& grad_output) {
  Tensor grad_input = grad_output;
  grad_input.reshape(input_shape_);
  return grad_input;
}

}  // namespace subfed
