// Deterministic synthetic image datasets.
//
// Real MNIST / EMNIST / CIFAR files are not available offline, so this module
// generates class-conditional surrogates with the same tensor shapes and
// class counts. Each class owns a few smooth random "prototype" fields
// (low-frequency cosine mixtures plus Gaussian blobs); an example is a
// prototype under brightness jitter, a small integer translation, and pixel
// noise. This keeps the task learnable-but-not-trivial for LeNet-scale CNNs,
// which is all the paper's phenomena need: its non-IID effects come from
// *label* partitioning, not pixel statistics (see DESIGN.md §1).
//
// A prototype costs 2–3× the rest of an image (4 cosines and 3 Gaussians
// per pixel, in double), and a federation draws thousands of images from 3
// prototypes per class. So each generator renders a prototype once, on first
// use, into a table of num_classes × 3 [C,H,W] slots (94 KB for mnist,
// 442 KB for emnist, 369 KB for cifar10, 3.7 MB for cifar100) and reads it
// without a lock afterwards. The table lives and dies with the generator and
// the copies made of it: there is no process-wide cache.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace subfed {

/// Identity of a benchmark dataset (shapes + class count + paper shard size).
struct DatasetSpec {
  std::string name;
  std::size_t num_classes = 10;
  std::size_t channels = 1;
  std::size_t hw = 28;              ///< square images
  std::size_t shard_size = 250;     ///< paper §4.1 (125 for CIFAR-100)
  /// Generator difficulty: pixel noise stddev. Higher → lower attainable
  /// accuracy; tuned so relative algorithm ordering matches the paper.
  float noise = 0.35f;

  static DatasetSpec mnist();     ///< 10 classes, 1×28×28
  static DatasetSpec emnist();    ///< 47 classes (balanced split), 1×28×28
  static DatasetSpec cifar10();   ///< 10 classes, 3×32×32
  static DatasetSpec cifar100();  ///< 100 classes, 3×32×32

  /// Look up by name ("mnist" | "emnist" | "cifar10" | "cifar100").
  static DatasetSpec by_name(const std::string& name);
};

/// Deterministic generator: image(class, index) depends only on
/// (seed, class, index), so any subset of the virtual dataset can be
/// materialized independently (per client) with no global storage. Const
/// methods may be called from many threads at once; copies share the
/// prototype table.
class SyntheticImageGenerator {
 public:
  SyntheticImageGenerator(DatasetSpec spec, std::uint64_t seed);

  const DatasetSpec& spec() const noexcept { return spec_; }

  /// Deterministic train-pool image for (label, index).
  Tensor train_image(std::size_t label, std::size_t index) const;
  /// Deterministic test-pool image (independent stream from train).
  Tensor test_image(std::size_t label, std::size_t index) const;

  /// Per-class prototype (no jitter/noise), rendered afresh on every call —
  /// the reference tests hold the cached prototypes to.
  Tensor prototype(std::size_t label, std::size_t which) const;

  std::size_t prototypes_per_class() const noexcept { return kPrototypes; }

 private:
  static constexpr std::size_t kPrototypes = 3;

  struct PrototypeSlot {
    std::once_flag once;
    Tensor image;
  };

  /// prototype(label, which), rendered into its slot on first use.
  const Tensor& cached_prototype(std::size_t label, std::size_t which) const;
  Tensor render(std::size_t label, std::uint64_t stream_tag, std::size_t index) const;

  DatasetSpec spec_;
  std::uint64_t seed_;
  /// Slot label·kPrototypes + which.
  std::shared_ptr<PrototypeSlot[]> prototypes_;
};

}  // namespace subfed
