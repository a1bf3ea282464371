// Reference GEMM loops (the naive device) and im2col/col2im used by Conv2d.
//
// All matrices are row-major. Conv GEMMs are short and long: the filter
// dimension is small (3–20 live filters in the model zoo), while the pixel
// dimension N·outH·outW is 7840 for lenet5's first layer at batch 10 (K in
// dW, N in the forward and dX GEMMs). The blocked kernels in
// tensor/kernels.h serve these shapes without a BLAS dependency.
#pragma once

#include <cstddef>

namespace subfed {

/// C[m×n] = A[m×k] · B[k×n]  (C is overwritten).
void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
          std::size_t n) noexcept;

/// C[m×n] += A[m×k] · B[k×n].
void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) noexcept;

/// C[m×n] (+)= Aᵀ[m×k] · B[k×n] where A is stored [k×m].
void gemm_at_b(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false) noexcept;

/// C[m×n] (+)= A[m×k] · Bᵀ[k×n] where B is stored [n×k].
void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false) noexcept;

/// Geometry of one conv layer application, shared by im2col and col2im.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;  // square kernels only (all paper models use 5x5/2x2)
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const noexcept { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const noexcept { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the unrolled patch matrix: C·K·K.
  std::size_t patch_size() const noexcept { return in_channels * kernel * kernel; }
};

/// Unrolls one image [C,H,W] into columns [C·K·K, outH·outW].
void im2col(const float* image, const ConvGeometry& g, float* columns) noexcept;

/// Scatters columns [C·K·K, outH·outW] back into an image [C,H,W],
/// accumulating overlapping patches (the adjoint of im2col).
void col2im(const float* columns, const ConvGeometry& g, float* image) noexcept;

/// im2col into a wider matrix: row r of the patch lands at
/// columns + r*col_stride + col_offset. Batched conv packs every sample of a
/// batch into one [C·K·K, N·outH·outW] matrix this way (sample n at offset
/// n·outH·outW with stride N·outH·outW), so the whole batch is a single GEMM.
void im2col_strided(const float* image, const ConvGeometry& g, float* columns,
                    std::size_t col_stride, std::size_t col_offset) noexcept;

/// Adjoint of im2col_strided: reads row r at columns + r*col_stride +
/// col_offset and scatter-accumulates into the [C,H,W] image (zeroed first).
void col2im_strided(const float* columns, const ConvGeometry& g, float* image,
                    std::size_t col_stride, std::size_t col_offset) noexcept;

}  // namespace subfed
