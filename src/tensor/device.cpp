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

#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/env.h"

namespace subfed {
namespace {

using Kind = Device::Kind;

/// The single name→kind table resolution, validation and listing share.
constexpr std::pair<const char*, Kind> kDevices[] = {
    {"blocked", Kind::kBlocked}, {"naive", Kind::kNaive}, {"sparse", Kind::kSparse}};

/// Largest B-side operand the sparse device density-scans when the caller
/// gives no weight-side hint: covers every weight matrix in the model zoo
/// (cnn_deep's fc1 is 2048×64 = 2^17) while excluding the biggest im2col
/// activation matrices; mid-sized activation operands pay an O(k·n) scan, a
/// few percent of their GEMM, only on this opt-in device.
constexpr std::size_t kMaxWeightOperand = std::size_t{1} << 18;

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
};

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

Device::Device(std::string name, Kind kind)
    : kind_(kind), name_(std::move(name)), impl_(new Impl) {
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
  im2col_strided(image, g, columns, col_stride, col_offset);
}

void Device::col2im(const float* columns, const ConvGeometry& g, float* image,
                    std::size_t col_stride, std::size_t col_offset) const {
  col2im_strided(columns, g, image, col_stride, col_offset);
}

namespace {

/// Geometry of the copy border_planes makes of `planes` input channels.
ConvGeometry bordered(const ConvGeometry& g, std::size_t planes) noexcept {
  return {planes, g.in_h + 2 * g.pad, g.in_w + 2 * g.pad, g.kernel, 1, 0};
}

/// Channels `planes` of every sample of `input`, copied into leased scratch
/// laid out as `b` (a zero border of g.pad around each plane) and followed
/// by kern::kDirectSlack zeros: the buffer the direct conv kernels read.
WorkspaceLease border_planes(const Device& dev, const float* input, std::size_t batch,
                             const ConvGeometry& g, const std::vector<std::size_t>& planes,
                             const ConvGeometry& b) {
  const std::size_t plane = g.in_h * g.in_w, b_plane = b.in_h * b.in_w;
  const std::size_t size = batch * planes.size() * b_plane;
  WorkspaceLease copy = dev.lease(size + kern::kDirectSlack);
  float* dst = copy.data();
  std::fill_n(dst + size, kern::kDirectSlack, 0.0f);
  if (g.pad != 0) std::fill_n(dst, size, 0.0f);
  for (std::size_t n = 0; n < batch; ++n) {
    for (const std::size_t c : planes) {
      const float* src = input + (n * g.in_channels + c) * plane;
      if (g.pad == 0) {
        std::memcpy(dst, src, plane * sizeof(float));
      } else {
        for (std::size_t y = 0; y < g.in_h; ++y) {
          std::memcpy(dst + (y + g.pad) * b.in_w + g.pad, src + y * g.in_w,
                      g.in_w * sizeof(float));
        }
      }
      dst += b_plane;
    }
  }
  return copy;
}

}  // namespace

bool Device::direct_conv(const ConvGeometry& g) const noexcept {
  return kind_ == Kind::kBlocked && g.stride == 1 && g.kernel <= kern::kMaxDirectKernel;
}

void Device::conv_forward(const float* w, std::size_t m, const float* input,
                          std::size_t batch, const ConvGeometry& g,
                          const std::vector<std::size_t>& planes, float* out) const {
  SUBFEDAVG_CHECK(direct_conv(g), "device '" << name_ << "' has no direct conv for this layer");
  const ConvGeometry b = bordered(g, planes.size());
  const std::size_t k = b.patch_size(), cols = batch * b.out_h() * b.out_w();
  if (kern::handle_trivial(out, m, k, cols, /*accumulate=*/false)) return;
  const WorkspaceLease copy = border_planes(*this, input, batch, g, planes, b);
  kern::run_row_chunks(m, kern::plan_chunks(m, 2 * m * k * cols),
                       [&](std::size_t i0, std::size_t i1) {
                         kern::conv_panel_forward(w, copy.data(), b, batch, out, i0, i1);
                       });
}

void Device::conv_weight_grad(const float* dy, std::size_t m, const float* input,
                              std::size_t batch, const ConvGeometry& g,
                              const std::vector<std::size_t>& planes, float* dw) const {
  SUBFEDAVG_CHECK(direct_conv(g), "device '" << name_ << "' has no direct conv for this layer");
  const ConvGeometry b = bordered(g, planes.size());
  const std::size_t k = b.patch_size(), cols = batch * b.out_h() * b.out_w();
  if (kern::handle_trivial(dw, m, cols, k, /*accumulate=*/false)) return;
  const WorkspaceLease copy = border_planes(*this, input, batch, g, planes, b);
  kern::run_row_chunks(m, kern::plan_chunks(m, 2 * m * k * cols),
                       [&](std::size_t i0, std::size_t i1) {
                         kern::conv_panel_weight_grad(dy, copy.data(), b, batch, dw, i0, i1);
                       });
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

/// The sparse device's stateless per-call inspection for operands without a
/// weight-side hint: A when it is sparse enough (nn/tn), else a
/// weight-sized B (nn/nt), else neither. The size gate keeps im2col
/// activation matrices — which conv's dW puts on the B side — from being
/// scanned or packed per call.
WeightSide inspect_sparse_side(GemmOp op, const float* a, const float* b, std::size_t m,
                               std::size_t k, std::size_t n) noexcept {
  const double threshold = sparse_density_threshold();
  if (op != GemmOp::kNT && kern::density(a, m * k) <= threshold) return WeightSide::kA;
  if (op != GemmOp::kTN && k * n <= kMaxWeightOperand &&
      kern::density(b, k * n) <= threshold) {
    return WeightSide::kB;
  }
  return WeightSide::kNone;
}

/// The naive device: tensor/gemm.h's unchunked reference loops.
void naive_gemm(GemmOp op, const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n, bool accumulate) noexcept {
  switch (op) {
    case GemmOp::kNN:
      if (accumulate) {
        gemm_accumulate(a, b, c, m, k, n);
      } else {
        gemm(a, b, c, m, k, n);
      }
      break;
    case GemmOp::kTN: gemm_at_b(a, b, c, m, k, n, accumulate); break;
    case GemmOp::kNT: gemm_a_bt(a, b, c, m, k, n, accumulate); break;
  }
}

}  // namespace

void Device::gemm(GemmOp op, const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate, WeightSide weight_side,
                  std::uint64_t weight_uid, std::uint64_t weight_epoch) const {
  static telemetry::Counter& plan_hit_c = telemetry::counter("device.plan_hit");
  static telemetry::Counter& plan_miss_c = telemetry::counter("device.plan_miss");
  static telemetry::Counter& density_scan_c = telemetry::counter("device.density_scan");

  if (kern::handle_trivial(c, m, k, n, accumulate)) return;

  // Resolve the execution plan: chunk fan-out always; sparse-vs-dense only on
  // the sparse device, for a hinted weight operand.
  const auto [weight_ptr, weight_size] = weight_operand(op, weight_side, a, b, m, k, n);
  const bool want_sparse_decision = kind_ == Kind::kSparse && weight_ptr != nullptr;

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
        need_scan = true;  // anonymous operand: scan per call
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

  execute(op, weight_side, a, b, c, m, k, n, accumulate, plan.chunks, plan.use_sparse,
          want_sparse_decision);
}

void Device::execute(GemmOp op, WeightSide side, const float* a, const float* b, float* c,
                     std::size_t m, std::size_t k, std::size_t n, bool accumulate,
                     std::size_t chunks, bool use_sparse, bool sparse_decided) const {
  if (kind_ == Kind::kNaive) {
    naive_gemm(op, a, b, c, m, k, n, accumulate);
    return;
  }
  if (kind_ == Kind::kSparse && !sparse_decided) {
    side = inspect_sparse_side(op, a, b, m, k, n);
    use_sparse = side != WeightSide::kNone;
  }

  if (use_sparse) {
    // Only pack + run here: "weight on A, un/transposed" becomes
    // per-output-row CSR + axpy; "weight on B" becomes per-output-column
    // CSR + dot.
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
      return;
    }
  }

  // Dense blocked execution with the planned fan-out.
  switch (op) {
    case GemmOp::kNN:
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_nn(a, b, c, /*lda=*/k, k, n, i0, i1, accumulate);
      });
      break;
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
}

// -- registry -----------------------------------------------------------------

namespace {

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, Device*>& registry() {
  // Heap-allocated and never destroyed — not a plain static — so the devices
  // stay *reachable* through it at exit: LSan would otherwise report every
  // device (and its pooled workspaces) once the map's nodes were freed.
  static auto* reg = new std::map<std::string, Device*>;
  return *reg;
}

const Kind* find_kind(const std::string& name) noexcept {
  for (const auto& [known, kind] : kDevices) {
    if (name == known) return &kind;
  }
  return nullptr;
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

const Device& get_device(const std::string& name) {
  const Kind* kind = find_kind(name);
  SUBFEDAVG_CHECK(kind != nullptr, "unknown device '" << name << "' (naive | blocked | sparse)");
  std::lock_guard<std::mutex> lock(registry_mutex());
  Device*& slot = registry()[name];
  // Intentionally never destroyed: leases held by static-lifetime objects may
  // drain back into the pool during any phase of shutdown.
  if (slot == nullptr) slot = new Device(name, *kind);
  return *slot;
}

bool has_device(const std::string& name) { return find_kind(name) != nullptr; }

std::vector<std::string> list_devices() {
  std::vector<std::string> names;
  for (const auto& [name, kind] : kDevices) names.emplace_back(name);
  return names;
}

const Device& default_device() {
  static const Device& device = get_device(env_string("SUBFEDAVG_BACKEND", "blocked"));
  return device;
}

}  // namespace subfed
