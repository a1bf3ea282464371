#include "tensor/gemm.h"

#include <algorithm>
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

namespace {

/// Output positions [lo, hi) along one axis whose input index
/// pos·stride + offset − pad lies inside [0, in): the rest read the zero
/// halo. Index arithmetic only, so no pointer ever points before a plane.
struct Interior {
  std::size_t lo, hi;
};

Interior interior(std::size_t offset, std::size_t pad, std::size_t stride, std::size_t in,
                  std::size_t out) noexcept {
  // pos·stride + offset ≥ pad  ⇔  pos ≥ ⌈(pad − offset) / stride⌉
  const std::size_t lo = offset >= pad ? 0 : (pad - offset + stride - 1) / stride;
  // pos·stride + offset − pad < in  ⇔  pos ≤ ⌊(in + pad − offset − 1) / stride⌋
  const std::size_t reach = in + pad;
  const std::size_t hi = offset >= reach ? 0 : std::min(out, (reach - offset - 1) / stride + 1);
  return {std::min(lo, hi), hi};
}

}  // namespace

void im2col_strided(const float* image, const ConvGeometry& g, float* columns,
                    std::size_t col_stride, std::size_t col_offset) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), s = g.stride;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out = columns + row * col_stride + col_offset;
        const Interior xs = interior(kx, g.pad, s, g.in_w, ow);
        Interior ys = interior(ky, g.pad, s, g.in_h, oh);
        if (xs.lo == xs.hi) ys.hi = ys.lo;  // every column reads the halo
        // Halo runs are short or empty: fill loops, not memset calls.
        std::fill_n(out, ys.lo * ow, 0.0f);
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          // First input element the interior reads: column xs.lo·s + kx − pad.
          const float* src = plane + (y * s + ky - g.pad) * g.in_w + (xs.lo * s + kx - g.pad);
          float* dst = out + y * ow;
          std::fill_n(dst, xs.lo, 0.0f);
          if (s == 1) {
            std::memcpy(dst + xs.lo, src, (xs.hi - xs.lo) * sizeof(float));
          } else {
            for (std::size_t x = xs.lo; x < xs.hi; ++x) dst[x] = src[(x - xs.lo) * s];
          }
          std::fill_n(dst + xs.hi, ow - xs.hi, 0.0f);
        }
        std::fill_n(out + ys.hi * ow, (oh - ys.hi) * ow, 0.0f);
      }
    }
  }
}

void col2im_strided(const float* columns, const ConvGeometry& g, float* image,
                    std::size_t col_stride, std::size_t col_offset) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), s = g.stride;
  std::memset(image, 0, g.in_channels * g.in_h * g.in_w * sizeof(float));
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in = columns + row * col_stride + col_offset;
        const Interior xs = interior(kx, g.pad, s, g.in_w, ow);
        const Interior ys = interior(ky, g.pad, s, g.in_h, oh);
        if (xs.lo == xs.hi) continue;
        // Same (c, ky, kx, y, x) order as a full sweep that skips the halo,
        // so every image element sums the same values in the same order.
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          float* dst = plane + (y * s + ky - g.pad) * g.in_w + (xs.lo * s + kx - g.pad);
          const float* src = in + y * ow;
          for (std::size_t x = xs.lo; x < xs.hi; ++x) dst[(x - xs.lo) * s] += src[x];
        }
      }
    }
  }
}

}  // namespace subfed
