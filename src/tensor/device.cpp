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

#include "tensor/kernels.h"
#include "util/check.h"
#include "util/env.h"

namespace subfed {
namespace {

using Kind = Device::Kind;

/// The single name→kind table resolution, validation and listing share.
constexpr std::pair<const char*, Kind> kDevices[] = {{"blocked", Kind::kBlocked},
                                                     {"naive", Kind::kNaive}};

constexpr std::size_t kMinLeaseFloats = 256;

std::size_t lease_class(std::size_t floats) noexcept {
  std::size_t c = kMinLeaseFloats;
  while (c < floats) c <<= 1;
  return c;
}

}  // namespace

// -- Impl ---------------------------------------------------------------------

struct Device::Impl {
  mutable std::mutex pool_mu;
  std::unordered_map<std::size_t, std::vector<float*>> pool;  // size class → free buffers

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
  s.workspace_leases = impl_->workspace_leases.load(std::memory_order_relaxed);
  s.workspace_reuses = impl_->workspace_reuses.load(std::memory_order_relaxed);
  s.bytes_allocated = impl_->bytes_allocated.load(std::memory_order_relaxed);
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
                  std::size_t k, std::size_t n, bool accumulate) const {
  if (kern::handle_trivial(c, m, k, n, accumulate)) return;
  if (kind_ == Kind::kNaive) {
    naive_gemm(op, a, b, c, m, k, n, accumulate);
    return;
  }
  const std::size_t chunks = kern::plan_chunks(m, 2 * m * k * n);
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
// held the registry or a device's pool mutex (the subprocess transport forks
// workers while concurrent runs train) would block forever on its first
// device lookup or lease, so every device lock is held across fork and
// released on both sides.
void Device::lock_all_for_fork() noexcept {
  registry_mutex().lock();
  for (auto& [key, device] : registry()) device->impl_->pool_mu.lock();
}

void Device::unlock_all_after_fork() noexcept {
  for (auto& [key, device] : registry()) device->impl_->pool_mu.unlock();
  registry_mutex().unlock();
}

const Device& get_device(const std::string& name) {
  const Kind* kind = find_kind(name);
  SUBFEDAVG_CHECK(kind != nullptr, "unknown device '" << name << "' (naive | blocked)");
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
