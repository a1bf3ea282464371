#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "tensor/backend.h"
#include "util/env.h"

namespace subfed {

// --- process-wide kernel knobs (declared in backend.h) -----------------------

namespace {
std::atomic<std::size_t> g_math_threads{static_cast<std::size_t>(
    std::max<std::int64_t>(0, env_int("SUBFEDAVG_MATH_THREADS", 0)))};
}  // namespace

void set_math_threads(std::size_t n) noexcept {
  g_math_threads.store(n, std::memory_order_relaxed);
}

std::size_t math_threads() noexcept {
  return g_math_threads.load(std::memory_order_relaxed);
}

namespace kern {

bool handle_trivial(float* c, std::size_t m, std::size_t k, std::size_t n,
                    bool accumulate) noexcept {
  if (m == 0 || n == 0) return true;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    return true;
  }
  return false;
}

std::size_t plan_chunks(std::size_t m, std::size_t flops) noexcept {
  if (flops < kMinParallelFlops) return 1;
  std::size_t threads = g_math_threads.load(std::memory_order_relaxed);
  const std::size_t pool = ThreadPool::global().size();
  if (threads == 0 || threads > pool) threads = pool;
  const std::size_t panels = (m + kMr - 1) / kMr;
  return std::max<std::size_t>(1, std::min(threads, panels));
}

// --- blocked kernels ---------------------------------------------------------
// Register-tiled kMr×kNr micro-kernel: the C tile lives in registers across
// the whole k loop (the naive kernel re-streams the C row from cache for
// every k step), and the j dimension vectorizes over unit-stride B rows.
//
// The baseline x86-64 ISA (SSE2) has too few/too narrow registers for the
// tile, so every panel entry point is compiled twice — a portable build and
// an AVX2+FMA build — and dispatched once per call on a cached cpuid check.
// The hot loops must live inside those entry points (marked always-inline),
// not behind a std::function boundary, so each build vectorizes end to end.
//
// Determinism: each output element is one ascending-k chain no matter how
// panels are split, whether a full or a tail tile computes it (every tile
// height accumulates identically), or how many k-blocks carry it through C,
// so any math_threads value produces bit-identical results.

#if defined(__GNUC__) || defined(__clang__)
#define SUBFED_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define SUBFED_ALWAYS_INLINE inline
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SUBFED_X86_DISPATCH 1
#define SUBFED_AVX2_TARGET __attribute__((target("avx2,fma")))
namespace {
bool cpu_has_avx2_fma() noexcept {
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
}
}  // namespace
#else
#define SUBFED_AVX2_TARGET
#endif

namespace {

// GCC/Clang generic vector extensions: the autovectorizer does not keep the
// register tile live across the k loop on its own, so the accumulators are
// explicit 8-wide vectors. The default clone lowers them to SSE pairs; other
// compilers get the scalar tile (correct, slower).
#if defined(__GNUC__) || defined(__clang__)
#define SUBFED_VECTOR_TILE 1
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // load8/store8 are always inlined
typedef float v8sf __attribute__((vector_size(32)));
SUBFED_ALWAYS_INLINE v8sf load8(const float* p) noexcept {
  v8sf v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
SUBFED_ALWAYS_INLINE void store8(float* p, v8sf v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}
#endif

/// How a tile's sums meet C: overwrite it, add to it once at the end
/// (C += A·B), or resume the chains an earlier k-block stored there (the
/// accumulators start from C's floats and are stored back). A float round
/// trip through memory is exact, so a chain split into k-blocks sums the same
/// values in the same order as one unsplit chain.
enum class TileStore { kOverwrite, kAdd, kResume };

/// One MR×kNr register tile: rows i..i+MR of A against a kNr-wide B panel
/// (`bpanel`, row stride ldb — either b + j inside the full matrix, or a
/// packed zero-padded [k×kNr] buffer). Writes back the first `nr` columns to
/// cpanel (= c + j). Every output element accumulates in ascending-k order,
/// identically for every tile height MR.
template <std::size_t MR, bool kTransposedA>
SUBFED_ALWAYS_INLINE void micro_tile(const float* a, std::size_t i, std::size_t lda,
                                     const float* bpanel, std::size_t ldb, float* cpanel,
                                     std::size_t ldc, std::size_t k, std::size_t nr,
                                     TileStore store) noexcept {
#if SUBFED_VECTOR_TILE
  static_assert(kNr == 16, "tile uses two 8-wide vectors per row");
  v8sf acc0[MR] = {}, acc1[MR] = {};
  if (store == TileStore::kResume) {
    for (std::size_t r = 0; r < MR; ++r) {
      float tile[kNr] = {};
      std::memcpy(tile, cpanel + (i + r) * ldc, nr * sizeof(float));
      acc0[r] = load8(tile);
      acc1[r] = load8(tile + 8);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* brow = bpanel + p * ldb;
    const v8sf b0 = load8(brow), b1 = load8(brow + 8);
    for (std::size_t r = 0; r < MR; ++r) {
      // A stored [k×m] keeps the panel's row values contiguous.
      const float value = kTransposedA ? a[p * lda + i + r] : a[(i + r) * lda + p];
      const v8sf av = v8sf{} + value;  // broadcast
      acc0[r] += av * b0;
      acc1[r] += av * b1;
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    float* crow = cpanel + (i + r) * ldc;
    if (nr == kNr) {
      if (store == TileStore::kAdd) {
        store8(crow, load8(crow) + acc0[r]);
        store8(crow + 8, load8(crow + 8) + acc1[r]);
      } else {
        store8(crow, acc0[r]);
        store8(crow + 8, acc1[r]);
      }
    } else {
      float tile[kNr];
      store8(tile, acc0[r]);
      store8(tile + 8, acc1[r]);
      for (std::size_t jj = 0; jj < nr; ++jj) {
        crow[jj] = store == TileStore::kAdd ? crow[jj] + tile[jj] : tile[jj];
      }
    }
  }
#else
  float acc[MR][kNr] = {};
  if (store == TileStore::kResume) {
    for (std::size_t r = 0; r < MR; ++r) {
      std::memcpy(acc[r], cpanel + (i + r) * ldc, nr * sizeof(float));
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* brow = bpanel + p * ldb;
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = kTransposedA ? a[p * lda + i + r] : a[(i + r) * lda + p];
      for (std::size_t jj = 0; jj < kNr; ++jj) acc[r][jj] += av * brow[jj];
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    float* crow = cpanel + (i + r) * ldc;
    for (std::size_t jj = 0; jj < nr; ++jj) {
      crow[jj] = store == TileStore::kAdd ? crow[jj] + acc[r][jj] : acc[r][jj];
    }
  }
#endif
}

#if SUBFED_VECTOR_TILE
#pragma GCC diagnostic pop
#endif

/// Per-thread packing scratch for partial/transposed B panels, grown on
/// demand and reused across calls so the tail path does no steady-state
/// allocation (matching the conv workspace's no-per-call-allocation goal).
std::vector<float>& packing_scratch(std::size_t size) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < size) scratch.resize(size);
  return scratch;
}

/// Rows [i0, i1) of C against one B panel: full kMr tiles, then the rows
/// left over (fewer than kMr) as one shorter tile, so B streams once. Which
/// rows form the tail depends only on i1 (always the matrix edge or a
/// kMr-aligned chunk boundary), and every tile height accumulates
/// identically, so threading cannot change results.
template <bool kTransposedA>
SUBFED_ALWAYS_INLINE void tile_rows(const float* a, std::size_t lda, const float* bpanel,
                                    std::size_t ldb, float* cpanel, std::size_t ldc,
                                    std::size_t i0, std::size_t i1, std::size_t k,
                                    std::size_t nr, TileStore store) noexcept {
  static_assert(kMr == 4, "tail tiles cover heights 1..3");
  std::size_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    micro_tile<kMr, kTransposedA>(a, i, lda, bpanel, ldb, cpanel, ldc, k, nr, store);
  }
  switch (i1 - i) {
    case 3: micro_tile<3, kTransposedA>(a, i, lda, bpanel, ldb, cpanel, ldc, k, nr, store); break;
    case 2: micro_tile<2, kTransposedA>(a, i, lda, bpanel, ldb, cpanel, ldc, k, nr, store); break;
    case 1: micro_tile<1, kTransposedA>(a, i, lda, bpanel, ldb, cpanel, ldc, k, nr, store); break;
    default: break;
  }
}

/// nn/tn panel body: B is row-major [k×n]; full kNr column panels run
/// against B in place, the column tail is packed zero-padded so the same
/// micro-tile applies. Always-inline so the multiversioned wrappers below
/// compile the whole loop nest per ISA (target_clones cannot attach to
/// templates directly).
template <bool kTransposedA>
SUBFED_ALWAYS_INLINE void gemm_panel(const float* a, const float* b, float* c,
                                     std::size_t lda, std::size_t k, std::size_t n,
                                     std::size_t i0, std::size_t i1, bool accumulate) {
  const TileStore store = accumulate ? TileStore::kAdd : TileStore::kOverwrite;
  const std::size_t tail = n % kNr;
  const std::size_t j_end = n - tail;
  for (std::size_t j = 0; j < j_end; j += kNr) {
    tile_rows<kTransposedA>(a, lda, b + j, n, c + j, n, i0, i1, k, kNr, store);
  }
  if (tail != 0) {
    std::vector<float>& packed = packing_scratch(k * kNr);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t jj = 0; jj < tail; ++jj) {
        packed[p * kNr + jj] = b[p * n + j_end + jj];
      }
      for (std::size_t jj = tail; jj < kNr; ++jj) packed[p * kNr + jj] = 0.0f;
    }
    tile_rows<kTransposedA>(a, lda, packed.data(), kNr, c + j_end, n, i0, i1, k, tail,
                            store);
  }
}

/// k-block of the nt packing: a packed [kKc×kNr] panel is 32 KiB, so it
/// stays in L1 while the row tiles stream it.
constexpr std::size_t kKc = 512;

/// nt panel body: B is stored [n×k], so every kNr-column panel is packed
/// transposed (zero-padded) into [kc×kNr] k-blocks with contiguous writes;
/// packing costs k·n per chunk and amortizes over the chunk's rows. Later
/// k-blocks resume the chains the earlier ones stored in C. An accumulating
/// call packs all of k as one block, so C's old value is added once, at the
/// end, as in the nn/tn panels.
SUBFED_ALWAYS_INLINE void gemm_panel_nt_body(const float* a, const float* b, float* c,
                                             std::size_t k, std::size_t n, std::size_t i0,
                                             std::size_t i1, bool accumulate) {
  const std::size_t kc = accumulate ? k : std::min(k, kKc);
  float* packed = packing_scratch(kc * kNr).data();
  for (std::size_t j = 0; j < n; j += kNr) {
    const std::size_t nr = std::min(kNr, n - j);
    const float* bpanel = b + j * k;
    for (std::size_t p0 = 0; p0 < k; p0 += kc) {
      const std::size_t kb = std::min(kc, k - p0);
      for (std::size_t p = 0; p < kb; ++p) {
        float* dst = packed + p * kNr;
        for (std::size_t jj = 0; jj < nr; ++jj) dst[jj] = bpanel[jj * k + p0 + p];
        for (std::size_t jj = nr; jj < kNr; ++jj) dst[jj] = 0.0f;
      }
      const TileStore store = p0 != 0    ? TileStore::kResume
                              : accumulate ? TileStore::kAdd
                                           : TileStore::kOverwrite;
      tile_rows<false>(a + p0, k, packed, kNr, c + j, n, i0, i1, kb, nr, store);
    }
  }
}

// --- direct convolution ------------------------------------------------------
// Stride-1 convolution that reads the input rows in place instead of a patch
// matrix. Each output element is the chain im2col + gemm_panel_nn (forward)
// or gemm_panel_nt (weight gradient) computes: the same `acc += a * b` steps
// on the same operands, in the same ascending order, compiled in the same
// two clones, so both paths agree bit for bit.

/// Where patch row p = (plane, ky, kx) starts relative to the top-left input
/// element of its output pixel, for every p of one call (thread-local and
/// grown on demand, like packing_scratch).
const std::size_t* patch_offsets(const ConvGeometry& g) {
  thread_local std::vector<std::size_t> offsets;
  offsets.clear();
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx) {
        offsets.push_back((c * g.in_h + ky) * g.in_w + kx);
      }
    }
  }
  return offsets.data();
}

/// Up to 8 consecutive output pixels of one output row: the input element
/// under the first one's top-left tap, its output column, and how many of the
/// 8 lanes are pixels (0 for the idle half of a batch's last tile).
struct Segment {
  const float* in;
  std::size_t col;
  std::size_t nr;
};

#if SUBFED_VECTOR_TILE
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // always inlined
SUBFED_ALWAYS_INLINE void store_lanes(float* dst, v8sf v, std::size_t nr) noexcept {
  if (nr == 8) {
    store8(dst, v);
    return;
  }
  float lanes[8];
  store8(lanes, v);
  std::memcpy(dst, lanes, nr * sizeof(float));
}
#endif

/// One MR-filter register tile over two segments: micro_tile's chains, with
/// the two 8-wide halves of each B row loaded in place from the input rows
/// of `s0` and `s1` instead of from a patch matrix.
template <std::size_t MR>
SUBFED_ALWAYS_INLINE void direct_tile(const float* w, std::size_t i, std::size_t k,
                                      const std::size_t* offsets, const Segment& s0,
                                      const Segment& s1, float* out,
                                      std::size_t ldc) noexcept {
#if SUBFED_VECTOR_TILE
  v8sf acc0[MR] = {}, acc1[MR] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const v8sf b0 = load8(s0.in + offsets[p]), b1 = load8(s1.in + offsets[p]);
    for (std::size_t r = 0; r < MR; ++r) {
      const v8sf av = v8sf{} + w[(i + r) * k + p];  // broadcast, as micro_tile
      acc0[r] += av * b0;
      acc1[r] += av * b1;
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    store_lanes(out + (i + r) * ldc + s0.col, acc0[r], s0.nr);
    store_lanes(out + (i + r) * ldc + s1.col, acc1[r], s1.nr);
  }
#else
  float acc[MR][2 * 8] = {};
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = w[(i + r) * k + p];
      for (std::size_t jj = 0; jj < 8; ++jj) {
        acc[r][jj] += av * s0.in[offsets[p] + jj];
        acc[r][8 + jj] += av * s1.in[offsets[p] + jj];
      }
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    std::memcpy(out + (i + r) * ldc + s0.col, acc[r], s0.nr * sizeof(float));
    std::memcpy(out + (i + r) * ldc + s1.col, acc[r] + 8, s1.nr * sizeof(float));
  }
#endif
}

/// Filter rows of the direct forward's register tile: 6 × two 8-wide
/// accumulators plus the two B halves and a broadcast fill the 16 AVX2
/// registers, and a layer's 8–20 live filters need fewer passes over the
/// input than at kMr.
constexpr std::size_t kDirectMr = 6;

/// direct_tile<mr> for a runtime mr ≤ MR.
template <std::size_t MR>
SUBFED_ALWAYS_INLINE void direct_tile_upto(std::size_t mr, const float* w, std::size_t i,
                                           std::size_t k, const std::size_t* offsets,
                                           const Segment& s0, const Segment& s1, float* out,
                                           std::size_t ldc) noexcept {
  if constexpr (MR > 1) {
    if (mr < MR) {
      direct_tile_upto<MR - 1>(mr, w, i, k, offsets, s0, s1, out, ldc);
      return;
    }
  }
  direct_tile<MR>(w, i, k, offsets, s0, s1, out, ldc);
}

/// Filter rows [i0, i1) of one segment pair, kDirectMr at a time.
SUBFED_ALWAYS_INLINE void direct_tile_rows(const float* w, std::size_t i0, std::size_t i1,
                                           std::size_t k, const std::size_t* offsets,
                                           const Segment& s0, const Segment& s1, float* out,
                                           std::size_t ldc) noexcept {
  for (std::size_t i = i0; i < i1; i += kDirectMr) {
    direct_tile_upto<kDirectMr>(std::min(kDirectMr, i1 - i), w, i, k, offsets, s0, s1, out,
                                ldc);
  }
}

/// Forward body: the batch's output rows are cut into segments of 8 pixels
/// (a row's last one shorter), and consecutive segments are paired into
/// 16-lane tiles across row and sample boundaries, so a row whose width is
/// not a multiple of 16 wastes at most the lanes of its last segment.
SUBFED_ALWAYS_INLINE void conv_forward_body(const float* w, const float* planes,
                                            const ConvGeometry& g, std::size_t batch,
                                            float* out, std::size_t i0, std::size_t i1) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), k = g.patch_size();
  const std::size_t sample = g.in_channels * g.in_h * g.in_w, ldc = batch * oh * ow;
  const std::size_t* offsets = patch_offsets(g);
  Segment pending{};
  bool paired = false;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t y = 0; y < oh; ++y) {
      const float* row = planes + n * sample + y * g.in_w;
      for (std::size_t x0 = 0; x0 < ow; x0 += 8) {
        const Segment s{row + x0, (n * oh + y) * ow + x0, std::min<std::size_t>(8, ow - x0)};
        if (paired) {
          direct_tile_rows(w, i0, i1, k, offsets, pending, s, out, ldc);
        } else {
          pending = s;
        }
        paired = !paired;
      }
    }
  }
  if (paired) {  // an odd segment count: the last tile's second half is idle
    direct_tile_rows(w, i0, i1, k, offsets, pending, Segment{pending.in, pending.col, 0}, out,
                     ldc);
  }
}

/// FB filters × GB (plane, ky) groups of the weight gradient: each group's
/// kx taps share one 8-lane accumulator per filter, and every accumulator is
/// one unbroken chain over the batch's pixels in ascending order, starting
/// from zero, with gemm_panel_nt's operands (dY broadcast, patch value).
/// Lanes at kx ≥ K are discarded.
template <std::size_t FB, std::size_t GB>
SUBFED_ALWAYS_INLINE void direct_dw_tile(const float* dy, std::size_t ldy, const float* planes,
                                         const std::size_t* group_offsets,
                                         const ConvGeometry& g, std::size_t batch, float* dw,
                                         std::size_t ldw) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w(), kernel = g.kernel;
  const std::size_t sample = g.in_channels * g.in_h * g.in_w;
#if SUBFED_VECTOR_TILE
  v8sf acc[FB][GB] = {};
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t y = 0; y < oh; ++y) {
      const float* dy_row = dy + (n * oh + y) * ow;
      const float* row = planes + n * sample + y * g.in_w;
      for (std::size_t x = 0; x < ow; ++x) {
        v8sf b[GB];
        for (std::size_t t = 0; t < GB; ++t) b[t] = load8(row + group_offsets[t] + x);
        for (std::size_t f = 0; f < FB; ++f) {
          const v8sf av = v8sf{} + dy_row[f * ldy + x];  // broadcast, as micro_tile
          for (std::size_t t = 0; t < GB; ++t) acc[f][t] += av * b[t];
        }
      }
    }
  }
  for (std::size_t f = 0; f < FB; ++f) {
    for (std::size_t t = 0; t < GB; ++t) store_lanes(dw + f * ldw + t * kernel, acc[f][t], kernel);
  }
#else
  float acc[FB][GB][kMaxDirectKernel] = {};
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t y = 0; y < oh; ++y) {
      const float* dy_row = dy + (n * oh + y) * ow;
      const float* row = planes + n * sample + y * g.in_w;
      for (std::size_t x = 0; x < ow; ++x) {
        for (std::size_t f = 0; f < FB; ++f) {
          const float av = dy_row[f * ldy + x];
          for (std::size_t t = 0; t < GB; ++t) {
            for (std::size_t kx = 0; kx < kernel; ++kx) {
              acc[f][t][kx] += av * row[group_offsets[t] + x + kx];
            }
          }
        }
      }
    }
  }
  for (std::size_t f = 0; f < FB; ++f) {
    for (std::size_t t = 0; t < GB; ++t) {
      std::memcpy(dw + f * ldw + t * kernel, acc[f][t], kernel * sizeof(float));
    }
  }
#endif
}

#if SUBFED_VECTOR_TILE
#pragma GCC diagnostic pop
#endif

/// Register blocking of the weight gradient: up to kDwFilters filters ×
/// kDwGroups groups of accumulators per pass over the pixels (the fastest
/// of 2–4 × 3–6 at the model zoo's shapes).
constexpr std::size_t kDwFilters = 3;
constexpr std::size_t kDwGroups = 4;

/// direct_dw_tile<FB, gb> for a runtime gb ≤ GB.
template <std::size_t FB, std::size_t GB>
SUBFED_ALWAYS_INLINE void direct_dw_tile_upto(std::size_t gb, const float* dy, std::size_t ldy,
                                              const float* planes,
                                              const std::size_t* group_offsets,
                                              const ConvGeometry& g, std::size_t batch,
                                              float* dw, std::size_t ldw) noexcept {
  if constexpr (GB > 1) {
    if (gb < GB) {
      direct_dw_tile_upto<FB, GB - 1>(gb, dy, ldy, planes, group_offsets, g, batch, dw, ldw);
      return;
    }
  }
  direct_dw_tile<FB, GB>(dy, ldy, planes, group_offsets, g, batch, dw, ldw);
}

/// Filter rows [i, i + FB) against every (plane, ky) group, kDwGroups at a time.
template <std::size_t FB>
SUBFED_ALWAYS_INLINE void direct_dw_rows(const float* dy, std::size_t ldy, const float* planes,
                                         const ConvGeometry& g, std::size_t batch, float* dw,
                                         std::size_t ldw) noexcept {
  const std::size_t groups = g.in_channels * g.kernel;
  std::size_t group_offsets[kDwGroups];
  for (std::size_t t0 = 0; t0 < groups; t0 += kDwGroups) {
    const std::size_t gb = std::min(kDwGroups, groups - t0);
    for (std::size_t t = 0; t < gb; ++t) {
      const std::size_t c = (t0 + t) / g.kernel, ky = (t0 + t) % g.kernel;
      group_offsets[t] = (c * g.in_h + ky) * g.in_w;
    }
    // Group t0 = (c, ky) starts at patch row (c, ky, 0) = t0·K.
    direct_dw_tile_upto<FB, kDwGroups>(gb, dy, ldy, planes, group_offsets, g, batch,
                                       dw + t0 * g.kernel, ldw);
  }
}

/// direct_dw_rows<fb> for a runtime fb ≤ FB.
template <std::size_t FB>
SUBFED_ALWAYS_INLINE void direct_dw_rows_upto(std::size_t fb, const float* dy, std::size_t ldy,
                                              const float* planes, const ConvGeometry& g,
                                              std::size_t batch, float* dw,
                                              std::size_t ldw) noexcept {
  if constexpr (FB > 1) {
    if (fb < FB) {
      direct_dw_rows_upto<FB - 1>(fb, dy, ldy, planes, g, batch, dw, ldw);
      return;
    }
  }
  direct_dw_rows<FB>(dy, ldy, planes, g, batch, dw, ldw);
}

SUBFED_ALWAYS_INLINE void conv_weight_grad_body(const float* dy, const float* planes,
                                                const ConvGeometry& g, std::size_t batch,
                                                float* dw, std::size_t i0, std::size_t i1) {
  const std::size_t ldy = batch * g.out_h() * g.out_w(), ldw = g.patch_size();
  for (std::size_t i = i0; i < i1; i += kDwFilters) {
    direct_dw_rows_upto<kDwFilters>(std::min(kDwFilters, i1 - i), dy + i * ldy, ldy, planes,
                                    g, batch, dw + i * ldw, ldw);
  }
}

// Dispatched entry points: the AVX2+FMA variants recompile the same inlined
// loop nests with wider registers and fused multiply-adds; the plain variants
// are the portable fallback (and the only build on non-x86 targets).
#if SUBFED_X86_DISPATCH
SUBFED_AVX2_TARGET void gemm_panel_nn_avx2(const float* a, const float* b, float* c,
                                           std::size_t lda, std::size_t k, std::size_t n,
                                           std::size_t i0, std::size_t i1,
                                           bool accumulate) {
  gemm_panel<false>(a, b, c, lda, k, n, i0, i1, accumulate);
}
SUBFED_AVX2_TARGET void gemm_panel_tn_avx2(const float* a, const float* b, float* c,
                                           std::size_t lda, std::size_t k, std::size_t n,
                                           std::size_t i0, std::size_t i1,
                                           bool accumulate) {
  gemm_panel<true>(a, b, c, lda, k, n, i0, i1, accumulate);
}
SUBFED_AVX2_TARGET void gemm_panel_nt_avx2(const float* a, const float* b, float* c,
                                           std::size_t k, std::size_t n, std::size_t i0,
                                           std::size_t i1, bool accumulate) {
  gemm_panel_nt_body(a, b, c, k, n, i0, i1, accumulate);
}
SUBFED_AVX2_TARGET void conv_panel_forward_avx2(const float* w, const float* planes,
                                                const ConvGeometry& g, std::size_t batch,
                                                float* out, std::size_t i0, std::size_t i1) {
  conv_forward_body(w, planes, g, batch, out, i0, i1);
}
SUBFED_AVX2_TARGET void conv_panel_weight_grad_avx2(const float* dy, const float* planes,
                                                    const ConvGeometry& g, std::size_t batch,
                                                    float* dw, std::size_t i0,
                                                    std::size_t i1) {
  conv_weight_grad_body(dy, planes, g, batch, dw, i0, i1);
}
#endif

}  // namespace

void gemm_panel_nn(const float* a, const float* b, float* c, std::size_t lda,
                   std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                   bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    gemm_panel_nn_avx2(a, b, c, lda, k, n, i0, i1, accumulate);
    return;
  }
#endif
  gemm_panel<false>(a, b, c, lda, k, n, i0, i1, accumulate);
}

void gemm_panel_tn(const float* a, const float* b, float* c, std::size_t lda,
                   std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                   bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    gemm_panel_tn_avx2(a, b, c, lda, k, n, i0, i1, accumulate);
    return;
  }
#endif
  gemm_panel<true>(a, b, c, lda, k, n, i0, i1, accumulate);
}

void gemm_panel_nt(const float* a, const float* b, float* c, std::size_t k, std::size_t n,
                   std::size_t i0, std::size_t i1, bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    gemm_panel_nt_avx2(a, b, c, k, n, i0, i1, accumulate);
    return;
  }
#endif
  gemm_panel_nt_body(a, b, c, k, n, i0, i1, accumulate);
}

void conv_panel_forward(const float* w, const float* planes, const ConvGeometry& g,
                        std::size_t batch, float* out, std::size_t i0, std::size_t i1) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    conv_panel_forward_avx2(w, planes, g, batch, out, i0, i1);
    return;
  }
#endif
  conv_forward_body(w, planes, g, batch, out, i0, i1);
}

void conv_panel_weight_grad(const float* dy, const float* planes, const ConvGeometry& g,
                            std::size_t batch, float* dw, std::size_t i0, std::size_t i1) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    conv_panel_weight_grad_avx2(dy, planes, g, batch, dw, i0, i1);
    return;
  }
#endif
  conv_weight_grad_body(dy, planes, g, batch, dw, i0, i1);
}

}  // namespace kern
}  // namespace subfed
