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

double sparse_density_threshold() noexcept {
  static const double threshold = env_double("SUBFEDAVG_SPARSE_DENSITY", 0.25);
  return threshold;
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

// --- sparse kernels ----------------------------------------------------------
// Pruning masks zero weights exactly; when the weight-side operand's density
// drops below the threshold it is packed into CSR (ascending k within each
// row, matching the dense accumulation order) and the kernel only touches
// nonzeros.

double density(const float* data, std::size_t size) noexcept {
  if (size == 0) return 1.0;
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < size; ++i) nonzero += data[i] != 0.0f ? 1 : 0;
  return static_cast<double>(nonzero) / static_cast<double>(size);
}

Csr Csr::pack(const float* data, std::size_t rows, std::size_t cols) {
  Csr csr;
  csr.row_begin.resize(rows + 1, 0);
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < rows * cols; ++i) nnz += data[i] != 0.0f ? 1 : 0;
  csr.col.reserve(nnz);
  csr.val.reserve(nnz);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (row[c] != 0.0f) {
        csr.col.push_back(static_cast<std::uint32_t>(c));
        csr.val.push_back(row[c]);
      }
    }
    csr.row_begin[r + 1] = static_cast<std::uint32_t>(csr.col.size());
  }
  return csr;
}

Csr Csr::pack_transposed(const float* data, std::size_t rows, std::size_t cols) {
  Csr csr;
  csr.row_begin.assign(cols + 1, 0);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    if (data[i] != 0.0f) ++csr.row_begin[i % cols + 1];
  }
  for (std::size_t c = 0; c < cols; ++c) csr.row_begin[c + 1] += csr.row_begin[c];
  csr.col.resize(csr.row_begin[cols]);
  csr.val.resize(csr.row_begin[cols]);
  std::vector<std::uint32_t> cursor(csr.row_begin.begin(), csr.row_begin.end() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (row[c] != 0.0f) {
        const std::uint32_t slot = cursor[c]++;
        csr.col[slot] = static_cast<std::uint32_t>(r);
        csr.val[slot] = row[c];
      }
    }
  }
  return csr;
}

namespace {

SUBFED_ALWAYS_INLINE void sparse_axpy_body(const std::uint32_t* row_begin,
                                           const std::uint32_t* col, const float* val,
                                           const float* b, float* c, std::size_t n,
                                           std::size_t i0, std::size_t i1,
                                           bool accumulate) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    if (!accumulate) std::memset(crow, 0, n * sizeof(float));
    for (std::uint32_t e = row_begin[i]; e < row_begin[i + 1]; ++e) {
      const float av = val[e];
      const float* brow = b + col[e] * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

SUBFED_ALWAYS_INLINE void sparse_dot_body(const std::uint32_t* row_begin,
                                          const std::uint32_t* col, const float* val,
                                          const float* a, float* c, std::size_t k,
                                          std::size_t n, std::size_t i0, std::size_t i1,
                                          bool accumulate) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::uint32_t e = row_begin[j]; e < row_begin[j + 1]; ++e) {
        acc += arow[col[e]] * val[e];
      }
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

#if SUBFED_X86_DISPATCH
SUBFED_AVX2_TARGET void sparse_axpy_panel_avx2(const std::uint32_t* row_begin,
                                               const std::uint32_t* col, const float* val,
                                               const float* b, float* c, std::size_t n,
                                               std::size_t i0, std::size_t i1,
                                               bool accumulate) {
  sparse_axpy_body(row_begin, col, val, b, c, n, i0, i1, accumulate);
}
SUBFED_AVX2_TARGET void sparse_dot_panel_avx2(const std::uint32_t* row_begin,
                                              const std::uint32_t* col, const float* val,
                                              const float* a, float* c, std::size_t k,
                                              std::size_t n, std::size_t i0,
                                              std::size_t i1, bool accumulate) {
  sparse_dot_body(row_begin, col, val, a, c, k, n, i0, i1, accumulate);
}
#endif

}  // namespace

void sparse_axpy_panel(const std::uint32_t* row_begin, const std::uint32_t* col,
                       const float* val, const float* b, float* c, std::size_t n,
                       std::size_t i0, std::size_t i1, bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    sparse_axpy_panel_avx2(row_begin, col, val, b, c, n, i0, i1, accumulate);
    return;
  }
#endif
  sparse_axpy_body(row_begin, col, val, b, c, n, i0, i1, accumulate);
}

void sparse_dot_panel(const std::uint32_t* row_begin, const std::uint32_t* col,
                      const float* val, const float* a, float* c, std::size_t k,
                      std::size_t n, std::size_t i0, std::size_t i1, bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    sparse_dot_panel_avx2(row_begin, col, val, a, c, k, n, i0, i1, accumulate);
    return;
  }
#endif
  sparse_dot_body(row_begin, col, val, a, c, k, n, i0, i1, accumulate);
}

}  // namespace kern
}  // namespace subfed
