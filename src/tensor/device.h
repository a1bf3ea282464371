// Storage-owning compute devices — the upper of the compute stack's two
// layers. A Device dispatches on its kind (naive | blocked | sparse) straight
// to the kernels of the lower layer (tensor/kernels.h, and tensor/gemm.h's
// reference loops for naive) and owns what the kernels alone can't hold:
//
//   * workspace leases — layers lease scratch from a per-device pooled
//     allocator (RAII WorkspaceLease) instead of owning grow-only vectors;
//   * an execution-plan cache keyed on (op, m/k/n, weight side) that picks
//     the thread fan-out once and, on the sparse device, caches the
//     sparse-vs-dense decision per weight (parameter uid + mask epoch, so a
//     pruning pass invalidates it) instead of rescanning density per call.
//
// Devices are process-lifetime singletons, safe to share across threads and
// to keep using in a fork()ed child.
// Determinism: per device, results are bit-identical for any math_threads
// value (plans only choose fan-out and kernels accumulate in ascending-k
// order). Across devices results may differ by floating-point contraction;
// tests/test_backend.cpp compares them within a tight tolerance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/gemm.h"

namespace subfed {

/// GEMM orientation: kNN: C = A[m×k]·B[k×n]; kTN: A stored [k×m];
/// kNT: B stored [n×k].
enum class GemmOp : std::uint8_t { kNN, kTN, kNT };

/// Which GEMM operand is a layer weight with a pruning-stable sparsity
/// pattern — the operand whose sparse-vs-dense decision the plan cache may
/// remember under (weight_uid, weight_epoch).
enum class WeightSide : std::uint8_t { kNone, kA, kB };

class Device;

/// RAII lease of device-owned scratch. The granted capacity (`size()`, in
/// floats, ≥ the request) comes from a pooled size-class allocator; returning
/// the lease (destructor or reset()) recycles the buffer without freeing it,
/// so steady-state training does no per-call allocation. Contents are
/// uninitialized. Movable, not copyable; may outlive arbitrary other leases
/// but not the device (devices live for the process).
class WorkspaceLease {
 public:
  WorkspaceLease() = default;
  WorkspaceLease(WorkspaceLease&& other) noexcept;
  WorkspaceLease& operator=(WorkspaceLease&& other) noexcept;
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  ~WorkspaceLease();

  /// Returns the buffer to the device pool now (idempotent).
  void reset() noexcept;

  float* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  explicit operator bool() const noexcept { return data_ != nullptr; }

 private:
  friend class Device;
  WorkspaceLease(const Device* device, float* data, std::size_t size) noexcept
      : device_(device), data_(data), size_(size) {}

  const Device* device_ = nullptr;
  float* data_ = nullptr;
  std::size_t size_ = 0;  ///< granted capacity in floats
};

/// Always-on (relaxed-atomic) device counters, independent of the telemetry
/// level — tests assert plan-cache and pool behaviour through these. The
/// telemetry registry mirrors plan hits/misses and density scans under
/// "device.*" when telemetry is enabled.
struct DeviceStats {
  std::uint64_t plan_hits = 0;        ///< gemm calls fully served by the plan cache
  std::uint64_t plan_misses = 0;      ///< calls that (re)planned fan-out or density
  std::uint64_t density_scans = 0;    ///< O(weight) density inspections performed
  std::uint64_t workspace_leases = 0; ///< lease() calls
  std::uint64_t workspace_reuses = 0; ///< leases served from the pool
  std::uint64_t bytes_allocated = 0;  ///< cumulative raw buffer allocations
  std::uint64_t plan_entries = 0;     ///< current plan-cache size
};

/// A compute device: a kernel set plus the owned state described above. All
/// methods are const and thread-safe; the mutable plan/pool state is
/// internally synchronized. Resolve devices through get_device().
class Device {
 public:
  enum class Kind : std::uint8_t { kNaive, kBlocked, kSparse };

  Device(std::string name, Kind kind);
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// "naive" | "blocked" | "sparse".
  const std::string& name() const noexcept { return name_; }

  // --- storage ---------------------------------------------------------------

  /// Raw 64-byte-aligned buffer of `floats` elements (uninitialized). Pair
  /// with deallocate. Most callers want lease() instead.
  float* allocate(std::size_t floats) const;
  void deallocate(float* data, std::size_t floats) const noexcept;

  /// Leases pooled scratch of at least `floats` elements (see WorkspaceLease).
  WorkspaceLease lease(std::size_t floats) const;

  // --- compute ---------------------------------------------------------------

  /// Planned GEMM: C[m×n] (+)= op(A)·op(B). Consults/updates the plan cache;
  /// when `weight_side` names a weight operand, pass the owning Parameter's
  /// `uid`/`mask_epoch` so the sparse-vs-dense decision is cached until the
  /// next pruning pass instead of rescanned per call (uid 0 = unknown, scan
  /// per call). On the sparse device an operand with no weight-side hint is
  /// inspected per call instead: A, then a weight-sized B, goes CSR when its
  /// density is at or below sparse_density_threshold().
  void gemm(GemmOp op, const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate,
            WeightSide weight_side = WeightSide::kNone, std::uint64_t weight_uid = 0,
            std::uint64_t weight_epoch = 0) const;

  void im2col(const float* image, const ConvGeometry& g, float* columns,
              std::size_t col_stride, std::size_t col_offset) const;
  void col2im(const float* columns, const ConvGeometry& g, float* image,
              std::size_t col_stride, std::size_t col_offset) const;

  /// True when conv_forward and conv_weight_grad serve geometry `g`: the
  /// blocked device convolves stride-1 layers with kernels up to
  /// kern::kMaxDirectKernel wide directly, reading patches from the input;
  /// the naive and sparse devices unroll with im2col.
  bool direct_conv(const ConvGeometry& g) const noexcept;

  /// out[m × batch·outH·outW] = w[m × planes.size()·K·K] · patches, where the
  /// patches are those im2col_strided unrolls from channels `planes`
  /// (ascending) of every sample of the [batch, g.in_channels, g.in_h,
  /// g.in_w] `input`. Bit-identical to that unrolling followed by gemm(kNN).
  /// Requires direct_conv(g).
  void conv_forward(const float* w, std::size_t m, const float* input, std::size_t batch,
                    const ConvGeometry& g, const std::vector<std::size_t>& planes,
                    float* out) const;

  /// dw[m × planes.size()·K·K] = dy[m × batch·outH·outW] · patchesᵀ over the
  /// same patches: bit-identical to gemm(kNT) against their unrolling.
  /// Requires direct_conv(g).
  void conv_weight_grad(const float* dy, std::size_t m, const float* input,
                        std::size_t batch, const ConvGeometry& g,
                        const std::vector<std::size_t>& planes, float* dw) const;

  DeviceStats stats() const noexcept;

 private:
  friend class WorkspaceLease;
  struct Impl;

  /// pthread_atfork handlers (registered by the first device): hold every
  /// registered device's locks across fork() so a forked child never
  /// inherits one held by a thread that did not survive the fork.
  static void lock_all_for_fork() noexcept;
  static void unlock_all_after_fork() noexcept;

  void release(float* data, std::size_t floats) const noexcept;
  void execute(GemmOp op, WeightSide side, const float* a, const float* b, float* c,
               std::size_t m, std::size_t k, std::size_t n, bool accumulate,
               std::size_t chunks, bool use_sparse, bool sparse_decided) const;

  Kind kind_;
  std::string name_;
  std::unique_ptr<Impl> impl_;
};

/// Device registry: "naive" | "blocked" | "sparse" resolve to
/// process-lifetime singletons. Throws CheckError listing the valid names on
/// an unknown one.
const Device& get_device(const std::string& name);

/// True when `name` names a registered device.
bool has_device(const std::string& name);

/// Every registered device name, sorted.
std::vector<std::string> list_devices();

/// The process-wide default device: SUBFEDAVG_BACKEND (default "blocked").
/// Resolved once; a bad env value throws on first use
/// (ExperimentSpec::make_context resolves eagerly).
const Device& default_device();

}  // namespace subfed
