#include "tensor/gemm.h"

#include <cstring>

namespace subfed {

namespace {

// Accumulating micro-kernel: C[m×n] += A[m×k]·B[k×n], ikj order so the inner
// loop streams B and C rows (unit stride, auto-vectorizable).
void gemm_ikj(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
              std::size_t n) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;  // masked weights are exact zeros; skip the row
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
          std::size_t n) noexcept {
  std::memset(c, 0, m * n * sizeof(float));
  gemm_ikj(a, b, c, m, k, n);
}

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) noexcept {
  gemm_ikj(a, b, c, m, k, n);
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate) noexcept {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  // C[i,j] = sum_p A[p,i] * B[p,j] — stream rows of A and B together.
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate) noexcept {
  // C[i,j] = dot(A row i, B row j); both rows are unit-stride.
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

void im2col(const float* image, const ConvGeometry& g, float* columns) noexcept {
  im2col_strided(image, g, columns, g.out_h() * g.out_w(), 0);
}

void col2im(const float* columns, const ConvGeometry& g, float* image) noexcept {
  col2im_strided(columns, g, image, g.out_h() * g.out_w(), 0);
}

void im2col_strided(const float* image, const ConvGeometry& g, float* columns,
                    std::size_t col_stride, std::size_t col_offset) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out = columns + row * col_stride + col_offset;
        for (std::size_t y = 0; y < oh; ++y) {
          // Input row for this output row; may fall in the padded halo.
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + ky) - static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            std::memset(out + y * ow, 0, ow * sizeof(float));
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(iy) * g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(x * g.stride + kx) -
                                      static_cast<std::ptrdiff_t>(g.pad);
            out[y * ow + x] = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w))
                                  ? 0.0f
                                  : src[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void col2im_strided(const float* columns, const ConvGeometry& g, float* image,
                    std::size_t col_stride, std::size_t col_offset) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::memset(image, 0, g.in_channels * g.in_h * g.in_w * sizeof(float));
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in = columns + row * col_stride + col_offset;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + ky) - static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          float* dst = plane + static_cast<std::size_t>(iy) * g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(x * g.stride + kx) -
                                      static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            dst[static_cast<std::size_t>(ix)] += in[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace subfed
