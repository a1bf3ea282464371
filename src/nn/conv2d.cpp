#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/device.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

/// Indices c < `slices` such that slice c of some of `count` consecutive
/// [slices × len] blocks holds a nonzero — e.g. the live planes of an
/// [N, C, H·W] activation, or (count = 1) the nonzero rows of a matrix.
std::vector<std::size_t> nonzero_slices(const float* data, std::size_t count,
                                        std::size_t slices, std::size_t len) {
  std::vector<std::size_t> live;
  for (std::size_t c = 0; c < slices; ++c) {
    for (std::size_t n = 0; n < count; ++n) {
      const float* slice = data + (n * slices + c) * len;
      if (std::any_of(slice, slice + len, [](float v) { return v != 0.0f; })) {
        live.push_back(c);
        break;
      }
    }
  }
  return live;
}

/// Copies the [rows × chans] blocks of `block` floats out of a row-major
/// matrix with `stride` floats per row into a dense panel.
void gather_blocks(const float* src, std::size_t stride, const std::vector<std::size_t>& rows,
                   const std::vector<std::size_t>& chans, std::size_t block, float* dst) {
  for (const std::size_t r : rows) {
    for (const std::size_t c : chans) {
      std::memcpy(dst, src + r * stride + c * block, block * sizeof(float));
      dst += block;
    }
  }
}

/// The explicit path's patch matrix: channels `planes` of every sample of
/// `input` unrolled into one [planes·K·K × N·spatial] panel, leased from
/// `dev`, so the whole batch is a single GEMM.
WorkspaceLease unroll(const Device& dev, const Tensor& input, const ConvGeometry& g,
                      const std::vector<std::size_t>& planes) {
  const std::size_t batch = input.shape()[0], plane = g.in_h * g.in_w;
  const std::size_t k2 = g.kernel * g.kernel, spatial = g.out_h() * g.out_w();
  const std::size_t cols = batch * spatial;
  WorkspaceLease columns = dev.lease(planes.size() * k2 * cols);
  const ConvGeometry one_plane{1, g.in_h, g.in_w, g.kernel, g.stride, g.pad};
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t j = 0; j < planes.size(); ++j) {
      dev.im2col(input.data() + (n * g.in_channels + planes[j]) * plane, one_plane,
                 columns.data() + j * k2 * cols, cols, n * spatial);
    }
  }
  return columns;
}

}  // namespace

Conv2d::Conv2d(std::string name, std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name + ".weight", Tensor({out_channels, in_channels, kernel, kernel}),
              /*is_prunable=*/true),
      bias_(name + ".bias", Tensor({out_channels}), /*is_prunable=*/false) {
  SUBFEDAVG_CHECK(kernel > 0 && stride > 0, "bad conv geometry");
}

void Conv2d::init(Rng& rng) {
  const double fan_in = static_cast<double>(in_channels_ * kernel_ * kernel_);
  weight_.value.fill_normal(rng, 0.0f, static_cast<float>(std::sqrt(2.0 / fan_in)));
  bias_.value.zero();
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  SUBFEDAVG_CHECK(input.shape().rank() == 4, "conv input must be NCHW, got "
                                                 << input.shape().to_string());
  const std::size_t batch = input.shape()[0];
  SUBFEDAVG_CHECK(input.shape()[1] == in_channels_,
                  "conv in_channels " << in_channels_ << " vs input " << input.shape()[1]);
  const ConvGeometry g{in_channels_, input.shape()[2], input.shape()[3],
                       kernel_,      stride_,          pad_};
  const std::size_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  const std::size_t k2 = kernel_ * kernel_, plane = g.in_h * g.in_w;
  const float* w = weight_.value.data();

  // The cached input exists only for backward; inference keeps none and
  // drops the last one, so backward-after-eval fails loudly.
  cached_input_ = train ? input : Tensor();
  Tensor output({batch, out_channels_, oh, ow});

  // Live output channels: weight rows that are not all zero. Live inputs:
  // planes nonzero in some sample. Eval also drops the planes no live weight
  // reads (training keeps them: backward's dW needs every nonzero plane).
  const std::vector<std::size_t> rows = nonzero_slices(w, 1, out_channels_, g.patch_size());
  std::vector<std::size_t> inputs = nonzero_slices(input.data(), batch, in_channels_, plane);
  if (!train) {
    const std::vector<std::size_t> read = nonzero_slices(w, out_channels_, in_channels_, k2);
    std::erase_if(inputs, [&](std::size_t c) {
      return !std::binary_search(read.begin(), read.end(), c);
    });
  }
  const std::size_t m = rows.size(), k = inputs.size() * k2;

  // Convolve the whole batch on the live weight panel:
  // out[m, N·spatial] = W[m, k] · patches[k, N·spatial].
  const Device& dev = device();
  const std::size_t cols = batch * spatial;  // one column per output pixel of the batch
  WorkspaceLease w_live = dev.lease(m * k);
  gather_blocks(w, g.patch_size(), rows, inputs, k2, w_live.data());
  WorkspaceLease gemm_out = dev.lease(m * cols);
  if (dev.direct_conv(g)) {
    dev.conv_forward(w_live.data(), m, input.data(), batch, g, inputs, gemm_out.data());
  } else {
    const WorkspaceLease columns = unroll(dev, input, g, inputs);
    dev.gemm(GemmOp::kNN, w_live.data(), columns.data(), gemm_out.data(), m, k, cols,
             /*accumulate=*/false);
  }

  // Regroup [m, N·spatial] → [N, oc, spatial] and add the bias. A dead output
  // channel's GEMM row is exactly +0, so it holds what the bias makes of zero.
  const float* bias = bias_.value.data();
  for (std::size_t n = 0; n < batch; ++n) {
    float* out_n = output.data() + n * out_channels_ * spatial;
    std::size_t i = 0;  // next live row
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      float* dst = out_n + oc * spatial;
      const float b = bias[oc];
      if (i == m || rows[i] != oc) {
        std::fill_n(dst, spatial, b == 0.0f ? 0.0f : 0.0f + b);
        continue;
      }
      const float* src = gemm_out.data() + i++ * cols + n * spatial;
      if (b == 0.0f) {
        std::memcpy(dst, src, spatial * sizeof(float));
      } else {
        for (std::size_t s = 0; s < spatial; ++s) dst[s] = src[s] + b;
      }
    }
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(!cached_input_.empty(), "backward before forward");
  const Tensor& input = cached_input_;
  const std::size_t batch = input.shape()[0];
  const ConvGeometry g{in_channels_, input.shape()[2], input.shape()[3],
                       kernel_,      stride_,          pad_};
  const std::size_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  SUBFEDAVG_CHECK(grad_output.shape() == Shape({batch, out_channels_, oh, ow}),
                  "grad_output shape " << grad_output.shape().to_string());
  const std::size_t k2 = kernel_ * kernel_, plane = g.in_h * g.in_w;
  const std::size_t patch = g.patch_size();
  const float* w = weight_.value.data();

  // Live output channels: dY rows that are not all zero — a zero row adds
  // exact zeros to dW, db and dX. Live inputs for dW: the planes nonzero in
  // some sample, as the train forward found them.
  const std::vector<std::size_t> rows =
      nonzero_slices(grad_output.data(), batch, out_channels_, spatial);
  const std::vector<std::size_t> inputs =
      nonzero_slices(input.data(), batch, in_channels_, plane);
  const std::size_t m = rows.size(), kf = inputs.size() * k2;

  const Device& dev = device();
  const std::size_t cols = batch * spatial;
  WorkspaceLease grad_packed = dev.lease(m * cols);

  // Regroup live dY rows [N, oc, spatial] → [m, N·spatial] so both weight and
  // input gradients are single whole-batch products.
  for (std::size_t n = 0; n < batch; ++n) {
    const float* go_n = grad_output.data() + n * out_channels_ * spatial;
    for (std::size_t i = 0; i < m; ++i) {
      std::memcpy(grad_packed.data() + i * cols + n * spatial, go_n + rows[i] * spatial,
                  spatial * sizeof(float));
    }
  }

  // dW[live rows, live inputs] += dY · patchesᵀ. The live block is computed
  // whole, then added into the gradient — the same single rounding as the
  // full GEMM's accumulate store.
  WorkspaceLease grad_w = dev.lease(m * kf);
  if (dev.direct_conv(g)) {
    dev.conv_weight_grad(grad_packed.data(), m, input.data(), batch, g, inputs,
                         grad_w.data());
  } else {
    const WorkspaceLease columns = unroll(dev, input, g, inputs);
    dev.gemm(GemmOp::kNT, grad_packed.data(), columns.data(), grad_w.data(), m, cols, kf,
             /*accumulate=*/false);
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      float* dst = weight_.grad.data() + rows[i] * patch + inputs[j] * k2;
      const float* src = grad_w.data() + (i * inputs.size() + j) * k2;
      for (std::size_t t = 0; t < k2; ++t) dst[t] += src[t];
    }
  }

  // db[oc] += sum over the batch's spatial positions of dY.
  for (std::size_t i = 0; i < m; ++i) {
    float acc = 0.0f;
    const float* row = grad_packed.data() + i * cols;
    for (std::size_t s = 0; s < cols; ++s) acc += row[s];
    bias_.grad.data()[rows[i]] += acc;
  }

  if (!needs_input_grad()) return Tensor();

  // dCols[live inputs, N·spatial] = Wᵀ · dY over the live rows, for the input
  // channels some weight reads; col2im scatters each one's plane per sample.
  const std::vector<std::size_t> read = nonzero_slices(w, out_channels_, in_channels_, k2);
  const std::size_t kx = read.size() * k2;
  WorkspaceLease w_live = dev.lease(m * kx);
  gather_blocks(w, patch, rows, read, k2, w_live.data());
  WorkspaceLease grad_columns = dev.lease(kx * cols);
  dev.gemm(GemmOp::kTN, w_live.data(), grad_packed.data(), grad_columns.data(), kx, m, cols,
           /*accumulate=*/false);
  Tensor grad_input(input.shape());
  const ConvGeometry one_plane{1, g.in_h, g.in_w, kernel_, stride_, pad_};
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t j = 0; j < read.size(); ++j) {
      dev.col2im(grad_columns.data() + j * k2 * cols, one_plane,
                 grad_input.data() + (n * in_channels_ + read[j]) * plane, cols, n * spatial);
    }
  }
  return grad_input;
}

}  // namespace subfed
