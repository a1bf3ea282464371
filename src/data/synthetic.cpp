#include "data/synthetic.h"

#include <cmath>
#include <numbers>

#include "util/check.h"

namespace subfed {

// Noise levels are calibrated (see EXPERIMENTS.md "Calibration") so that the
// paper's relative ordering emerges at simulator scale: local training
// overfits a client's small shard, FedAvg collapses under 2-label non-IID,
// and Sub-FedAvg's partner averaging recovers the gap.
DatasetSpec DatasetSpec::mnist() { return {"mnist", 10, 1, 28, 250, 1.0f}; }
DatasetSpec DatasetSpec::emnist() { return {"emnist", 47, 1, 28, 250, 1.0f}; }
DatasetSpec DatasetSpec::cifar10() { return {"cifar10", 10, 3, 32, 250, 1.3f}; }
DatasetSpec DatasetSpec::cifar100() { return {"cifar100", 100, 3, 32, 125, 1.3f}; }

DatasetSpec DatasetSpec::by_name(const std::string& name) {
  if (name == "mnist") return mnist();
  if (name == "emnist") return emnist();
  if (name == "cifar10") return cifar10();
  if (name == "cifar100") return cifar100();
  SUBFEDAVG_CHECK(false, "unknown dataset '" << name << "'");
  return {};
}

SyntheticImageGenerator::SyntheticImageGenerator(DatasetSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed),
      prototypes_(new PrototypeSlot[spec_.num_classes * kPrototypes]) {}

Tensor SyntheticImageGenerator::prototype(std::size_t label, std::size_t which) const {
  SUBFEDAVG_CHECK(label < spec_.num_classes, "label " << label);
  SUBFEDAVG_CHECK(which < kPrototypes, "prototype index " << which);
  const std::size_t hw = spec_.hw, ch = spec_.channels;
  Tensor img({ch, hw, hw});

  // Independent stream per (class, prototype). The pattern is a mixture of
  // low-frequency cosines plus a few Gaussian bumps; different classes draw
  // different frequencies/placements, giving CNN-learnable signatures.
  Rng rng = Rng(seed_).split("prototype", label * kPrototypes + which);

  constexpr std::size_t kWaves = 4;
  constexpr std::size_t kBlobs = 3;
  for (std::size_t c = 0; c < ch; ++c) {
    struct Wave { double fx, fy, phase, amp; };
    struct Blob { double cx, cy, sigma, amp; };
    Wave waves[kWaves];
    Blob blobs[kBlobs];
    for (auto& wv : waves) {
      wv.fx = rng.uniform(0.5, 3.0);
      wv.fy = rng.uniform(0.5, 3.0);
      wv.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      wv.amp = rng.uniform(0.2, 0.5);
    }
    for (auto& bl : blobs) {
      bl.cx = rng.uniform(0.15, 0.85);
      bl.cy = rng.uniform(0.15, 0.85);
      bl.sigma = rng.uniform(0.08, 0.2);
      bl.amp = rng.uniform(0.5, 1.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    }
    for (std::size_t y = 0; y < hw; ++y) {
      for (std::size_t x = 0; x < hw; ++x) {
        const double u = static_cast<double>(x) / hw;
        const double v = static_cast<double>(y) / hw;
        double value = 0.0;
        for (const auto& wv : waves) {
          value += wv.amp *
                   std::cos(2.0 * std::numbers::pi * (wv.fx * u + wv.fy * v) + wv.phase);
        }
        for (const auto& bl : blobs) {
          const double dx = u - bl.cx, dy = v - bl.cy;
          value += bl.amp * std::exp(-(dx * dx + dy * dy) / (2.0 * bl.sigma * bl.sigma));
        }
        img[(c * hw + y) * hw + x] = static_cast<float>(value);
      }
    }
  }
  return img;
}

const Tensor& SyntheticImageGenerator::cached_prototype(std::size_t label,
                                                       std::size_t which) const {
  PrototypeSlot& slot = prototypes_[label * kPrototypes + which];
  std::call_once(slot.once, [&] { slot.image = prototype(label, which); });
  return slot.image;
}

Tensor SyntheticImageGenerator::render(std::size_t label, std::uint64_t stream_tag,
                                       std::size_t index) const {
  SUBFEDAVG_CHECK(label < spec_.num_classes, "label " << label);
  const std::size_t hw = spec_.hw, ch = spec_.channels;

  Rng rng = Rng(seed_).split("example", stream_tag ^ (label * 0x1000003ULL + index));
  const std::size_t which = static_cast<std::size_t>(rng.uniform_index(kPrototypes));
  const Tensor& proto = cached_prototype(label, which);

  // Brightness jitter, ±2px translation, pixel noise.
  const float gain = static_cast<float>(rng.uniform(0.8, 1.2));
  const int shift_x = static_cast<int>(rng.uniform_index(5)) - 2;
  const int shift_y = static_cast<int>(rng.uniform_index(5)) - 2;

  Tensor img({ch, hw, hw});
  for (std::size_t c = 0; c < ch; ++c) {
    for (std::size_t y = 0; y < hw; ++y) {
      for (std::size_t x = 0; x < hw; ++x) {
        const int sy = static_cast<int>(y) - shift_y;
        const int sx = static_cast<int>(x) - shift_x;
        float value = 0.0f;
        if (sy >= 0 && sy < static_cast<int>(hw) && sx >= 0 && sx < static_cast<int>(hw)) {
          value = proto[(c * hw + static_cast<std::size_t>(sy)) * hw +
                        static_cast<std::size_t>(sx)];
        }
        value = gain * value + static_cast<float>(rng.normal(0.0, spec_.noise));
        img[(c * hw + y) * hw + x] = value;
      }
    }
  }
  return img;
}

Tensor SyntheticImageGenerator::train_image(std::size_t label, std::size_t index) const {
  return render(label, hash_name("train"), index);
}

Tensor SyntheticImageGenerator::test_image(std::size_t label, std::size_t index) const {
  return render(label, hash_name("test"), index);
}

}  // namespace subfed
