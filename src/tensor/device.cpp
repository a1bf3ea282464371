#include "tensor/device.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <pthread.h>
#include <unordered_map>
#include <utility>

#include "comm/quantize.h"  // scalar fp16 casts double as the compute staging path
#include "tensor/backend.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/env.h"

namespace subfed {
namespace {

// -- fp16 staging -------------------------------------------------------------
// Round each operand element through the wire half-precision format before the
// fp32 kernels consume it. Elementwise and scalar, so the result is identical
// regardless of chunking or ISA — fp16 devices keep the bit-determinism
// contract, and (since the casts preserve ±0) pruned zeros stay exactly zero,
// leaving density decisions unchanged.
void stage_fp16(const float* src, float* dst, std::size_t count) noexcept {
  for (std::size_t i = 0; i < count; ++i) dst[i] = fp16_to_fp32(fp32_to_fp16(src[i]));
}

enum class Kind : std::uint8_t { kNaive, kBlocked, kSparse };

Kind kind_of(const MathBackend& kernels) {
  const std::string name = kernels.name();
  if (name == "naive") return Kind::kNaive;
  if (name == "sparse") return Kind::kSparse;
  return Kind::kBlocked;  // "blocked" and any future dense kernel set
}

struct PlanKey {
  GemmOp op;
  WeightSide side;
  std::size_t m, k, n;

  bool operator==(const PlanKey& o) const noexcept {
    return op == o.op && side == o.side && m == o.m && k == o.k && n == o.n;
  }
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept {
    std::size_t h = static_cast<std::size_t>(key.op) * 3u + static_cast<std::size_t>(key.side);
    for (std::size_t v : {key.m, key.k, key.n}) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// Cached sparse-vs-dense choice for one weight tensor at one mask epoch.
struct WeightDecision {
  std::uint64_t uid = 0;
  std::uint64_t epoch = 0;
  bool use_sparse = false;
};

struct PlanEntry {
  std::size_t chunks = 1;
  /// math_threads()/pool size the chunk count was planned for; a runtime
  /// change of the cap replans (counted as a miss) instead of going stale.
  std::size_t threads_seen = ~std::size_t{0};
  /// MRU list, newest first, capped — one shape is shared by at most a
  /// handful of live weights (e.g. the conv layers of concurrent clients).
  std::vector<WeightDecision> decisions;
};

constexpr std::size_t kMaxDecisionsPerShape = 8;

/// What Device::gemm resolved for one call.
struct Plan {
  std::size_t chunks = 1;
  bool use_sparse = false;
};

constexpr std::size_t kMinLeaseFloats = 256;

std::size_t lease_class(std::size_t floats) noexcept {
  std::size_t c = kMinLeaseFloats;
  while (c < floats) c <<= 1;
  return c;
}

}  // namespace

// -- Impl ---------------------------------------------------------------------

struct Device::Impl {
  mutable std::mutex plan_mu;
  std::unordered_map<PlanKey, PlanEntry, PlanKeyHash> plans;

  mutable std::mutex pool_mu;
  std::unordered_map<std::size_t, std::vector<float*>> pool;  // size class → free buffers

  std::atomic<std::uint64_t> plan_hits{0};
  std::atomic<std::uint64_t> plan_misses{0};
  std::atomic<std::uint64_t> density_scans{0};
  std::atomic<std::uint64_t> workspace_leases{0};
  std::atomic<std::uint64_t> workspace_reuses{0};
  std::atomic<std::uint64_t> bytes_allocated{0};

  Kind kind = Kind::kBlocked;
};

const char* compute_dtype_name(ComputeDType dtype) noexcept {
  return dtype == ComputeDType::kFp16 ? "fp16" : "fp32";
}

ComputeDType parse_compute_dtype(const std::string& name) {
  if (name == "fp32") return ComputeDType::kFp32;
  if (name == "fp16") return ComputeDType::kFp16;
  SUBFEDAVG_CHECK(false, "unknown compute dtype '" << name << "' (fp32 | fp16)");
  return ComputeDType::kFp32;  // unreachable
}

// -- WorkspaceLease -----------------------------------------------------------

WorkspaceLease::WorkspaceLease(WorkspaceLease&& other) noexcept
    : device_(other.device_), data_(other.data_), size_(other.size_) {
  other.device_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

WorkspaceLease& WorkspaceLease::operator=(WorkspaceLease&& other) noexcept {
  if (this != &other) {
    reset();
    device_ = other.device_;
    data_ = other.data_;
    size_ = other.size_;
    other.device_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

WorkspaceLease::~WorkspaceLease() { reset(); }

void WorkspaceLease::reset() noexcept {
  if (data_ != nullptr) device_->release(data_, size_);
  device_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

// -- Device -------------------------------------------------------------------

Device::Device(const MathBackend& kernels, ComputeDType compute)
    : kernels_(kernels),
      compute_(compute),
      backend_name_(kernels.name()),
      name_(compute == ComputeDType::kFp16 ? backend_name_ + "+fp16" : backend_name_),
      impl_(new Impl) {
  impl_->kind = kind_of(kernels);
  static const int fork_guard =
      ::pthread_atfork(&lock_all_for_fork, &unlock_all_after_fork, &unlock_all_after_fork);
  (void)fork_guard;
}

Device::~Device() {
  std::lock_guard<std::mutex> lock(impl_->pool_mu);
  for (auto& [size_class, buffers] : impl_->pool) {
    for (float* data : buffers) {
      ::operator delete(data, std::align_val_t{64});
    }
  }
}

float* Device::allocate(std::size_t floats) const {
  if (floats == 0) floats = 1;
  impl_->bytes_allocated.fetch_add(floats * sizeof(float), std::memory_order_relaxed);
  return static_cast<float*>(::operator new(floats * sizeof(float), std::align_val_t{64}));
}

void Device::deallocate(float* data, std::size_t /*floats*/) const noexcept {
  if (data != nullptr) ::operator delete(data, std::align_val_t{64});
}

WorkspaceLease Device::lease(std::size_t floats) const {
  const std::size_t size_class = lease_class(floats);
  impl_->workspace_leases.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->pool_mu);
    auto it = impl_->pool.find(size_class);
    if (it != impl_->pool.end() && !it->second.empty()) {
      float* data = it->second.back();
      it->second.pop_back();
      impl_->workspace_reuses.fetch_add(1, std::memory_order_relaxed);
      return WorkspaceLease(this, data, size_class);
    }
  }
  return WorkspaceLease(this, allocate(size_class), size_class);
}

void Device::release(float* data, std::size_t floats) const noexcept {
  std::lock_guard<std::mutex> lock(impl_->pool_mu);
  impl_->pool[floats].push_back(data);
}

DeviceStats Device::stats() const noexcept {
  DeviceStats s;
  s.plan_hits = impl_->plan_hits.load(std::memory_order_relaxed);
  s.plan_misses = impl_->plan_misses.load(std::memory_order_relaxed);
  s.density_scans = impl_->density_scans.load(std::memory_order_relaxed);
  s.workspace_leases = impl_->workspace_leases.load(std::memory_order_relaxed);
  s.workspace_reuses = impl_->workspace_reuses.load(std::memory_order_relaxed);
  s.bytes_allocated = impl_->bytes_allocated.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->plan_mu);
    s.plan_entries = impl_->plans.size();
  }
  return s;
}

void Device::im2col(const float* image, const ConvGeometry& g, float* columns,
                    std::size_t col_stride, std::size_t col_offset) const {
  kernels_.im2col(image, g, columns, col_stride, col_offset);
}

void Device::col2im(const float* columns, const ConvGeometry& g, float* image,
                    std::size_t col_stride, std::size_t col_offset) const {
  kernels_.col2im(columns, g, image, col_stride, col_offset);
}

namespace {

/// Row-major element count of the weight-side operand, and its pointer.
std::pair<const float*, std::size_t> weight_operand(GemmOp op, WeightSide side,
                                                    const float* a, const float* b,
                                                    std::size_t m, std::size_t k,
                                                    std::size_t n) noexcept {
  if (side == WeightSide::kA) return {a, op == GemmOp::kTN ? k * m : m * k};
  if (side == WeightSide::kB) return {b, op == GemmOp::kNT ? n * k : k * n};
  return {nullptr, 0};
}

}  // namespace

void Device::gemm(GemmOp op, const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate, WeightSide weight_side,
                  std::uint64_t weight_uid, std::uint64_t weight_epoch,
                  const GemmEpilogue* epilogue) const {
  static telemetry::Counter& plan_hit_c = telemetry::counter("device.plan_hit");
  static telemetry::Counter& plan_miss_c = telemetry::counter("device.plan_miss");
  static telemetry::Counter& density_scan_c = telemetry::counter("device.density_scan");

  if (kern::handle_trivial(c, m, k, n, accumulate)) {
    if (epilogue != nullptr && m > 0 && n > 0) kern::apply_epilogue_rows(c, n, 0, m, *epilogue);
    return;
  }

  // fp16 compute: stage both operands through the half round-trip, then run
  // the fp32 kernels (fp32 accumulation) on the staged panels.
  const float* ea = a;
  const float* eb = b;
  WorkspaceLease a16, b16;
  if (compute_ == ComputeDType::kFp16) {
    const std::size_t a_size = op == GemmOp::kTN ? k * m : m * k;
    const std::size_t b_size = op == GemmOp::kNT ? n * k : k * n;
    a16 = lease(a_size);
    b16 = lease(b_size);
    stage_fp16(a, a16.data(), a_size);
    stage_fp16(b, b16.data(), b_size);
    ea = a16.data();
    eb = b16.data();
  }

  // Resolve the execution plan: chunk fan-out always; sparse-vs-dense only on
  // the sparse kernel set. Density is computed on the staged (fp16) operand so
  // the decision matches what the kernels will actually see; the half
  // round-trip preserves zeros, so in practice it equals the fp32 decision.
  const auto [weight_ptr, weight_size] =
      weight_operand(op, weight_side, ea, eb, m, k, n);
  const bool want_sparse_decision = impl_->kind == Kind::kSparse && weight_ptr != nullptr;

  Plan plan;
  bool hit = true;
  bool need_scan = false;
  const PlanKey key{op, weight_side, m, k, n};
  const std::size_t threads_now = math_threads();
  const std::size_t flops = 2 * m * k * n;
  {
    std::lock_guard<std::mutex> lock(impl_->plan_mu);
    PlanEntry& entry = impl_->plans[key];
    if (entry.threads_seen != threads_now) {
      entry.chunks = kern::plan_chunks(m, flops);
      entry.threads_seen = threads_now;
      hit = false;
    }
    plan.chunks = entry.chunks;
    if (want_sparse_decision) {
      if (weight_uid == 0) {
        need_scan = true;  // anonymous operand: legacy per-call behaviour
        hit = false;
      } else {
        auto it = std::find_if(entry.decisions.begin(), entry.decisions.end(),
                               [&](const WeightDecision& d) { return d.uid == weight_uid; });
        if (it != entry.decisions.end() && it->epoch == weight_epoch) {
          plan.use_sparse = it->use_sparse;
          if (it != entry.decisions.begin()) std::rotate(entry.decisions.begin(), it, it + 1);
        } else {
          need_scan = true;
          hit = false;
        }
      }
    }
  }
  if (need_scan) {
    // O(weight) scan outside the lock; concurrent first-callers may scan the
    // same weight once each, then all insert the identical decision.
    impl_->density_scans.fetch_add(1, std::memory_order_relaxed);
    density_scan_c.add();
    plan.use_sparse = kern::density(weight_ptr, weight_size) <= sparse_density_threshold();
    if (weight_uid != 0) {
      std::lock_guard<std::mutex> lock(impl_->plan_mu);
      PlanEntry& entry = impl_->plans[key];
      auto it = std::find_if(entry.decisions.begin(), entry.decisions.end(),
                             [&](const WeightDecision& d) { return d.uid == weight_uid; });
      if (it != entry.decisions.end()) entry.decisions.erase(it);
      entry.decisions.insert(entry.decisions.begin(),
                             WeightDecision{weight_uid, weight_epoch, plan.use_sparse});
      if (entry.decisions.size() > kMaxDecisionsPerShape) entry.decisions.pop_back();
    }
  }
  if (hit) {
    impl_->plan_hits.fetch_add(1, std::memory_order_relaxed);
    plan_hit_c.add();
  } else {
    impl_->plan_misses.fetch_add(1, std::memory_order_relaxed);
    plan_miss_c.add();
  }

  execute(op, weight_side, ea, eb, c, m, k, n, accumulate, plan.chunks, plan.use_sparse,
          want_sparse_decision, epilogue);
}

void Device::execute(GemmOp op, WeightSide side, const float* a, const float* b, float* c,
                     std::size_t m, std::size_t k, std::size_t n, bool accumulate,
                     std::size_t chunks, bool use_sparse, bool sparse_decided,
                     const GemmEpilogue* ep) const {
  // Sparse kernel set without a weight-side hint (e.g. raw math_backend()
  // callers routed through device_for): keep SparseBackend's stateless
  // per-call inspection behaviour.
  if (impl_->kind == Kind::kSparse && !sparse_decided) {
    switch (op) {
      case GemmOp::kNN: kernels_.gemm_nn(a, b, c, m, k, n, accumulate); break;
      case GemmOp::kTN: kernels_.gemm_tn(a, b, c, m, k, n, accumulate); break;
      case GemmOp::kNT: kernels_.gemm_nt(a, b, c, m, k, n, accumulate); break;
    }
    if (ep != nullptr) kern::apply_epilogue_rows(c, n, 0, m, *ep);
    return;
  }

  if (impl_->kind == Kind::kSparse && use_sparse) {
    // Planned sparse execution: the decision is cached, so only pack + run
    // here. "Weight on A, un/transposed" becomes per-output-row CSR + axpy;
    // "weight on B" becomes per-output-column CSR + dot. Epilogues apply as a
    // post-pass — same scalar expressions, same bits as the fused store-back.
    kern::Csr csr;
    bool axpy = false;
    if (side == WeightSide::kA && op == GemmOp::kNN) {
      csr = kern::Csr::pack(a, m, k);
      axpy = true;
    } else if (side == WeightSide::kA && op == GemmOp::kTN) {
      csr = kern::Csr::pack_transposed(a, k, m);
      axpy = true;
    } else if (side == WeightSide::kB && op == GemmOp::kNN) {
      csr = kern::Csr::pack_transposed(b, k, n);
    } else if (side == WeightSide::kB && op == GemmOp::kNT) {
      csr = kern::Csr::pack(b, n, k);
    } else {
      // Weight placements the CSR kernels have no fast path for (kTN weight
      // on B, kNT weight on A) never arise from the layers; run dense.
      use_sparse = false;
    }
    if (use_sparse) {
      if (axpy) {
        kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
          kern::sparse_axpy_panel(csr.row_begin.data(), csr.col.data(), csr.val.data(), b, c,
                                  n, i0, i1, accumulate);
        });
      } else {
        kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
          kern::sparse_dot_panel(csr.row_begin.data(), csr.col.data(), csr.val.data(), a, c,
                                 k, n, i0, i1, accumulate);
        });
      }
      if (ep != nullptr) kern::apply_epilogue_rows(c, n, 0, m, *ep);
      return;
    }
  }

  // Dense execution with the cached fan-out (naive runs unchunked).
  if (impl_->kind == Kind::kNaive) {
    switch (op) {
      case GemmOp::kNN: kernels_.gemm_nn(a, b, c, m, k, n, accumulate); break;
      case GemmOp::kTN: kernels_.gemm_tn(a, b, c, m, k, n, accumulate); break;
      case GemmOp::kNT: kernels_.gemm_nt(a, b, c, m, k, n, accumulate); break;
    }
    if (ep != nullptr) kern::apply_epilogue_rows(c, n, 0, m, *ep);
    return;
  }

  switch (op) {
    case GemmOp::kNN:
      if (ep != nullptr) {
        kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
          kern::gemm_panel_nn_fused(a, b, c, /*lda=*/k, k, n, i0, i1, accumulate, *ep);
        });
        return;
      }
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_nn(a, b, c, /*lda=*/k, k, n, i0, i1, accumulate);
      });
      return;
    case GemmOp::kTN:
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_tn(a, b, c, /*lda=*/m, k, n, i0, i1, accumulate);
      });
      break;
    case GemmOp::kNT:
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_nt(a, b, c, k, n, i0, i1, accumulate);
      });
      break;
  }
  if (ep != nullptr) kern::apply_epilogue_rows(c, n, 0, m, *ep);
}

// -- registry -----------------------------------------------------------------

namespace {

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::pair<std::string, int>, Device*>& registry() {
  // Heap-allocated and never destroyed — not a plain static — so the devices
  // stay *reachable* through it at exit: LSan would otherwise report every
  // device (and its pooled workspaces) once the map's nodes were freed.
  static auto* reg = new std::map<std::pair<std::string, int>, Device*>;
  return *reg;
}

}  // namespace

// fork() copies only the calling thread. A child forked while another thread
// held a device's plan or pool mutex (the subprocess transport forks workers
// while concurrent runs train) would block forever on its first GEMM or
// lease, so every device lock is held across fork and released on both sides.
void Device::lock_all_for_fork() noexcept {
  registry_mutex().lock();
  for (auto& [key, device] : registry()) {
    device->impl_->plan_mu.lock();
    device->impl_->pool_mu.lock();
  }
}

void Device::unlock_all_after_fork() noexcept {
  for (auto& [key, device] : registry()) {
    device->impl_->pool_mu.unlock();
    device->impl_->plan_mu.unlock();
  }
  registry_mutex().unlock();
}

const Device& get_device(const std::string& backend, ComputeDType dtype) {
  SUBFEDAVG_CHECK(has_math_backend(backend),
                  "unknown device '" << backend
                                     << "' (naive | blocked | sparse; compute fp32 | fp16)");
  const MathBackend& kernels = math_backend(backend);
  std::lock_guard<std::mutex> lock(registry_mutex());
  Device*& slot = registry()[{backend, static_cast<int>(dtype)}];
  // Intentionally never destroyed: leases held by static-lifetime objects may
  // drain back into the pool during any phase of shutdown.
  if (slot == nullptr) slot = new Device(kernels, dtype);
  return *slot;
}

const Device& get_device(const std::string& backend, const std::string& compute) {
  return get_device(backend, parse_compute_dtype(compute));
}

bool has_device(const std::string& backend) { return has_math_backend(backend); }

std::vector<std::string> list_devices() {
  std::vector<std::string> names;
  for (const std::string& backend : list_math_backends()) {
    names.push_back(backend);
    names.push_back(backend + "+fp16");
  }
  std::sort(names.begin(), names.end());
  return names;
}

const Device& default_device() {
  static const Device& device = get_device(env_string("SUBFEDAVG_BACKEND", "blocked"),
                                           env_string("SUBFEDAVG_COMPUTE", "fp32"));
  return device;
}

const Device& device_for(const MathBackend& kernels) {
  return get_device(kernels.name(), ComputeDType::kFp32);
}

bool fused_epilogues_default() noexcept {
  static const bool fused = env_int("SUBFEDAVG_FUSED", 1) != 0;
  return fused;
}

}  // namespace subfed
