#include "nn/pooling.h"

#include "util/check.h"

namespace subfed {

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  SUBFEDAVG_CHECK(window > 0, "pool window must be positive");
}

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  SUBFEDAVG_CHECK(input.shape().rank() == 4, "pool input must be NCHW");
  const std::size_t batch = input.shape()[0], channels = input.shape()[1];
  const std::size_t h = input.shape()[2], w = input.shape()[3];
  const std::size_t oh = h / window_, ow = w / window_;
  SUBFEDAVG_CHECK(oh > 0 && ow > 0, "pool window larger than input");

  input_shape_ = input.shape();
  Tensor output({batch, channels, oh, ow});
  // The argmax exists only for backward; inference keeps none.
  if (train) {
    argmax_.assign(output.numel(), 0);
  } else {
    argmax_ = std::vector<std::size_t>();
  }
  float* out = output.data();  // sizes fixed above; raw pointers in the loop
  std::size_t* argmax = train ? argmax_.data() : nullptr;

  std::size_t out_idx = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* plane = input.data() + (n * channels + c) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_idx) {
          const std::size_t y0 = oy * window_, x0 = ox * window_;
          std::size_t best = y0 * w + x0;
          float best_val = plane[best];
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              const std::size_t idx = (y0 + dy) * w + (x0 + dx);
              if (plane[idx] > best_val) {
                best_val = plane[idx];
                best = idx;
              }
            }
          }
          out[out_idx] = best_val;
          if (argmax != nullptr) argmax[out_idx] = (n * channels + c) * h * w + best;
        }
      }
    }
  }
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(grad_output.numel() == argmax_.size(), "pool backward before forward");
  Tensor grad_input(input_shape_);
  // Every argmax_ entry indexes into an input_shape_ tensor (set by forward).
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) gi[argmax_[i]] += go[i];
  return grad_input;
}

}  // namespace subfed
