// The kernel layer: register-tiled dense panels, direct stride-1
// convolution and the row-chunk runner. Stateless apart from the
// process-wide knob in tensor/backend.h.
//
// The compute stack has two layers:
//
//   tensor/kernels.h  — this header: kernels that compute rows [i0, i1) of a
//                       GEMM output or of a direct convolution's filter
//                       rows, and the runner that spreads row chunks over the
//                       thread pool (tensor/gemm.h holds the naive reference
//                       loops and im2col/col2im)
//   tensor/device.h   — storage-owning devices (naive | blocked): each
//                       dispatches straight to its kernels, plans the
//                       fan-out per call, and pools workspace
//
// Determinism contract (inherited by every caller): each output element is
// one ascending-k accumulation chain regardless of how row panels are
// chunked, which tile height computes it (4 in the GEMMs, 6 in the direct
// forward, fewer for a row tail), or how many k-blocks the nt kernel splits
// it into (a later block resumes the exact float the earlier one stored in
// C). Results are bit-identical for any math_threads value. The direct
// convolution kernels compute the same chains as im2col followed by the nn
// (forward) or nt (weight gradient) panel, so the two conv paths agree bit
// for bit.
#pragma once

#include <cstddef>

#include "tensor/gemm.h"
#include "util/thread_pool.h"

namespace subfed {
namespace kern {

// Register-tile geometry of the blocked kernels (see kernels.cpp).
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;
/// Below this many FLOPs (2·m·k·n) a GEMM runs on the calling thread; pool
/// dispatch would cost more than it saves on LeNet-scale tiles.
constexpr std::size_t kMinParallelFlops = std::size_t{1} << 21;

/// Degenerate shapes every kernel handles up front: an empty output needs no
/// work; k == 0 means C is zeroed (or untouched when accumulating).
bool handle_trivial(float* c, std::size_t m, std::size_t k, std::size_t n,
                    bool accumulate) noexcept;

/// Row panels a GEMM of `flops` total work over `m` rows may fan out to,
/// given the current math-thread cap and pool size. It does not inspect the
/// calling thread: run_row_chunks checks the in-pool condition when it runs.
std::size_t plan_chunks(std::size_t m, std::size_t flops) noexcept;

/// Runs fn(i_begin, i_end) over [0, m) split into `chunks` kMr-aligned
/// chunks. The alignment keeps the micro-kernel/edge-kernel boundary
/// independent of the chunk layout (see determinism note above). Inside a
/// pool task (client training fans over the same global pool) the pool is
/// saturated: queued panels would only be drained by this thread anyway, so
/// the fan-out collapses to sequential regardless of `chunks`.
template <typename Fn>
void run_row_chunks(std::size_t m, std::size_t chunks, const Fn& fn) {
  if (chunks <= 1 || ThreadPool::current_thread_in_pool()) {
    fn(0, m);
    return;
  }
  const std::size_t panels = (m + kMr - 1) / kMr;
  const std::size_t panels_per_chunk = (panels + chunks - 1) / chunks;
  ThreadPool::global().parallel_for(chunks, [&](std::size_t chunk) {
    const std::size_t i0 = chunk * panels_per_chunk * kMr;
    const std::size_t i1 = std::min(m, i0 + panels_per_chunk * kMr);
    if (i0 < m) fn(i0, i1);
  });
}

// --- dense panels (AVX2+FMA dispatched internally) --------------------------
// Rows [i0, i1) of C. nn/tn read B row-major [k×n]; nt reads B stored [n×k].
// A is row-major [m×k] for nn/nt and stored [k×m] for tn (lda = row stride).

void gemm_panel_nn(const float* a, const float* b, float* c, std::size_t lda,
                   std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                   bool accumulate);
void gemm_panel_tn(const float* a, const float* b, float* c, std::size_t lda,
                   std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                   bool accumulate);
void gemm_panel_nt(const float* a, const float* b, float* c, std::size_t k, std::size_t n,
                   std::size_t i0, std::size_t i1, bool accumulate);

// --- direct convolution (stride 1, no padding) -------------------------------
// `planes` holds a batch as [batch × g.in_channels × g.in_h × g.in_w] floats
// followed by kDirectSlack more: an 8-lane load for a row's last pixels (at
// least one) or last kernel tap (K ≥ 1) runs up to 7 floats past the row,
// and the slack keeps the loads of the last row inside the buffer (those
// lanes are discarded). Padding is applied by
// the caller as a zero border, so g.pad must be 0 and g.stride 1. Patch row
// p = (plane, ky, kx) and output column q = (sample, y, x) are ordered as
// im2col_strided orders them over a batch.

/// Widest kernel conv_panel_weight_grad handles: one 8-lane vector covers
/// kx for each (plane, ky) row.
constexpr std::size_t kMaxDirectKernel = 8;
/// Floats past the last plane that a direct-conv input buffer must hold.
constexpr std::size_t kDirectSlack = 7;

/// Rows [i0, i1) of out[m × batch·outH·outW] = w[m × C·K·K] · patches:
/// the chains gemm_panel_nn computes against im2col of `planes`.
void conv_panel_forward(const float* w, const float* planes, const ConvGeometry& g,
                        std::size_t batch, float* out, std::size_t i0, std::size_t i1);

/// Rows [i0, i1) of dw[m × C·K·K] = dy[m × batch·outH·outW] · patchesᵀ: the
/// chains gemm_panel_nt computes against im2col of `planes` (each one
/// unbroken over the pixels, in ascending order). Needs g.kernel ≤
/// kMaxDirectKernel.
void conv_panel_weight_grad(const float* dy, const float* planes, const ConvGeometry& g,
                            std::size_t batch, float* dw, std::size_t i0, std::size_t i1);

}  // namespace kern
}  // namespace subfed
