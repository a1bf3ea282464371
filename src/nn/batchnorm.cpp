#include "nn/batchnorm.h"

#include <cmath>

#include "util/check.h"

namespace subfed {

BatchNorm2d::BatchNorm2d(std::string name, std::size_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(name + ".gamma", Tensor({channels}, 1.0f), /*is_prunable=*/false),
      beta_(name + ".beta", Tensor({channels}), /*is_prunable=*/false),
      running_mean_(name + ".running_mean", Tensor({channels}), /*is_prunable=*/false),
      running_var_(name + ".running_var", Tensor({channels}, 1.0f), /*is_prunable=*/false) {}

Tensor BatchNorm2d::forward(const Tensor& input, bool train) {
  SUBFEDAVG_CHECK(input.shape().rank() == 4 && input.shape()[1] == channels_,
                  "bn input " << input.shape().to_string() << " channels " << channels_);
  const std::size_t batch = input.shape()[0], h = input.shape()[2], w = input.shape()[3];
  const std::size_t spatial = h * w;
  const std::size_t per_channel = batch * spatial;

  Tensor output(input.shape());

  Tensor mean({channels_}), var({channels_});
  if (train) {
    // Batch statistics per channel over (N, H, W).
    for (std::size_t c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for (std::size_t n = 0; n < batch; ++n) {
        const float* plane = input.data() + (n * channels_ + c) * spatial;
        for (std::size_t s = 0; s < spatial; ++s) acc += plane[s];
      }
      mean[c] = static_cast<float>(acc / per_channel);
    }
    for (std::size_t c = 0; c < channels_; ++c) {
      double acc = 0.0;
      const float m = mean[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* plane = input.data() + (n * channels_ + c) * spatial;
        for (std::size_t s = 0; s < spatial; ++s) {
          const double d = plane[s] - m;
          acc += d * d;
        }
      }
      var[c] = static_cast<float>(acc / per_channel);  // biased, as in PyTorch forward
    }
    // Update running stats with the unbiased variance.
    const double bessel = per_channel > 1
                              ? static_cast<double>(per_channel) / (per_channel - 1)
                              : 1.0;
    for (std::size_t c = 0; c < channels_; ++c) {
      running_mean_.value[c] =
          (1.0f - momentum_) * running_mean_.value[c] + momentum_ * mean[c];
      running_var_.value[c] = (1.0f - momentum_) * running_var_.value[c] +
                              momentum_ * static_cast<float>(var[c] * bessel);
    }
    cached_input_ = input;
    batch_mean_ = mean;
    batch_var_ = var;
  } else {
    mean = running_mean_.value;
    var = running_var_.value;
    cached_input_ = Tensor();
    batch_mean_ = Tensor();
    batch_var_ = Tensor();
  }

  for (std::size_t c = 0; c < channels_; ++c) {
    const float inv_std = 1.0f / std::sqrt(var[c] + eps_);
    const float g = gamma_.value[c], b = beta_.value[c], m = mean[c];
    for (std::size_t n = 0; n < batch; ++n) {
      const float* in_plane = input.data() + (n * channels_ + c) * spatial;
      float* out_plane = output.data() + (n * channels_ + c) * spatial;
      for (std::size_t s = 0; s < spatial; ++s) {
        out_plane[s] = g * (in_plane[s] - m) * inv_std + b;
      }
    }
  }
  return output;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(!cached_input_.empty(),
                  "BatchNorm backward requires a training-mode forward");
  const Tensor& input = cached_input_;
  const std::size_t batch = input.shape()[0], h = input.shape()[2], w = input.shape()[3];
  const std::size_t spatial = h * w;
  const std::size_t per_channel = batch * spatial;
  SUBFEDAVG_CHECK(grad_output.shape() == input.shape(), "bn grad shape");

  Tensor grad_input(input.shape());
  for (std::size_t c = 0; c < channels_; ++c) {
    const float m = batch_mean_[c];
    const float inv_std = 1.0f / std::sqrt(batch_var_[c] + eps_);
    const float g = gamma_.value[c];

    // Reductions: Σ dy, Σ dy·x̂.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* in_plane = input.data() + (n * channels_ + c) * spatial;
      const float* go_plane = grad_output.data() + (n * channels_ + c) * spatial;
      for (std::size_t s = 0; s < spatial; ++s) {
        const float xhat = (in_plane[s] - m) * inv_std;
        sum_dy += go_plane[s];
        sum_dy_xhat += static_cast<double>(go_plane[s]) * xhat;
      }
    }

    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);
    if (l1_gamma_ > 0.0f) {
      // Network-slimming sparsity subgradient on γ.
      const float gv = gamma_.value[c];
      gamma_.grad[c] += l1_gamma_ * (gv > 0.0f ? 1.0f : (gv < 0.0f ? -1.0f : 0.0f));
    }

    // dx = γ·inv_std/N · (N·dy − Σdy − x̂·Σ(dy·x̂))
    const float k = g * inv_std / static_cast<float>(per_channel);
    for (std::size_t n = 0; n < batch; ++n) {
      const float* in_plane = input.data() + (n * channels_ + c) * spatial;
      const float* go_plane = grad_output.data() + (n * channels_ + c) * spatial;
      float* gi_plane = grad_input.data() + (n * channels_ + c) * spatial;
      for (std::size_t s = 0; s < spatial; ++s) {
        const float xhat = (in_plane[s] - m) * inv_std;
        gi_plane[s] = k * (static_cast<float>(per_channel) * go_plane[s] -
                           static_cast<float>(sum_dy) - xhat * static_cast<float>(sum_dy_xhat));
      }
    }
  }
  return grad_input;
}

}  // namespace subfed
