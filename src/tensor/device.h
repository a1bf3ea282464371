// Storage-owning compute devices.
//
// PR 3's MathBackend multiplies but never owns memory: every Conv2d
// hand-manages workspace vectors, the sparse backend re-inspects weight
// density on every call, and nothing remembers how a shape was executed last
// time. Device promotes that seam to an interface that owns staging buffers
// and execution state (the poplibs ConvPlan shape — plan once, reuse across
// calls — rather than darknet's layer-holds-device-buffers shape):
//
//   * workspace leases — layers lease scratch from a per-device pooled
//     allocator (RAII WorkspaceLease) instead of owning grow-only vectors;
//   * an execution-plan cache keyed on (op, m/k/n, weight side) per device
//     (dtype is per-device) that picks the thread fan-out once and caches the
//     sparse-vs-dense decision per weight (parameter uid + mask epoch, so a
//     pruning pass invalidates it) instead of rescanning density per call;
//   * fused conv→batchnorm→activation epilogues applied in the blocked
//     GEMM's register tiles (see tensor/kernels.h, GemmEpilogue);
//   * an fp16 compute mode that stages A/B panels through the wire-format
//     round-to-nearest casts (comm/quantize.h) with fp32 accumulation.
//
// Devices are process-lifetime singletons, safe to share across threads and
// to keep using in a fork()ed child.
// Determinism: per device, results are bit-identical for any math_threads
// value (plans only choose fan-out and kernels accumulate in ascending-k
// order); fp16 staging is elementwise and deterministic. Across devices the
// equivalence suite compares within tolerance — documented looser for fp16.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/kernels.h"

namespace subfed {

class MathBackend;

enum class ComputeDType : std::uint8_t { kFp32 = 0, kFp16 = 1 };

const char* compute_dtype_name(ComputeDType dtype) noexcept;
/// Parses "fp32" | "fp16" (throws CheckError listing the names otherwise).
ComputeDType parse_compute_dtype(const std::string& name);

/// GEMM orientation, matching MathBackend's three entry points:
/// kNN: C = A[m×k]·B[k×n]; kTN: A stored [k×m]; kNT: B stored [n×k].
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

/// A compute device: a MathBackend kernel set + compute dtype + the owned
/// state described above. All methods are const and thread-safe; the mutable
/// plan/pool state is internally synchronized.
class Device {
 public:
  Device(const MathBackend& kernels, ComputeDType compute);
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// "blocked", "sparse+fp16", … — backend name plus a dtype suffix.
  const std::string& name() const noexcept { return name_; }
  const std::string& backend_name() const noexcept { return backend_name_; }
  ComputeDType compute() const noexcept { return compute_; }
  /// The raw kernel set this device executes through.
  const MathBackend& kernels() const noexcept { return kernels_; }

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
  /// per call). `epilogue` fuses a conv→bn→activation tail into the store-back
  /// (bit-identical to the unfused layer chain, any device kind).
  void gemm(GemmOp op, const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate,
            WeightSide weight_side = WeightSide::kNone, std::uint64_t weight_uid = 0,
            std::uint64_t weight_epoch = 0, const GemmEpilogue* epilogue = nullptr) const;

  void im2col(const float* image, const ConvGeometry& g, float* columns,
              std::size_t col_stride, std::size_t col_offset) const;
  void col2im(const float* columns, const ConvGeometry& g, float* image,
              std::size_t col_stride, std::size_t col_offset) const;

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
               std::size_t chunks, bool use_sparse, bool sparse_decided,
               const GemmEpilogue* epilogue) const;

  const MathBackend& kernels_;
  ComputeDType compute_;
  std::string backend_name_;
  std::string name_;
  std::unique_ptr<Impl> impl_;
};

/// Device registry: backend names ("naive" | "blocked" | "sparse") × compute
/// dtypes resolve to process-lifetime singletons. Throws CheckError listing
/// the valid combinations on an unknown backend name.
const Device& get_device(const std::string& backend,
                         ComputeDType dtype = ComputeDType::kFp32);
/// Convenience overload parsing `compute` ("fp32" | "fp16").
const Device& get_device(const std::string& backend, const std::string& compute);

/// True when `backend` names a registered kernel set.
bool has_device(const std::string& backend);

/// Every device name the registry resolves: backend names plus their "+fp16"
/// variants, sorted.
std::vector<std::string> list_devices();

/// The process-wide default device: SUBFEDAVG_BACKEND (default "blocked") at
/// SUBFEDAVG_COMPUTE (default "fp32"). Resolved once; a bad env value throws
/// on first use (ExperimentSpec::make_context resolves eagerly).
const Device& default_device();

/// The fp32 device wrapping `kernels` — the shim Layer::set_backend uses to
/// keep the deprecated MathBackend pointer API working.
const Device& device_for(const MathBackend& kernels);

/// Process default for fusing conv→bn→activation epilogues into eval-mode
/// GEMMs: SUBFEDAVG_FUSED (default on). Model::set_fusion overrides per model.
bool fused_epilogues_default() noexcept;

}  // namespace subfed
