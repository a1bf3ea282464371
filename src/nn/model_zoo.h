// The two architectures evaluated in the paper (§4.1).
//
//  * Cnn5  — "5-layer CNN" for MNIST / EMNIST: two 5×5 conv layers
//            (10, 20 channels), each followed by BatchNorm and 2×2 max-pool,
//            then FC-50 and an FC classifier head.
//  * LeNet5 — for CIFAR-10 / CIFAR-100, with BatchNorm added after each conv
//             layer as the paper specifies: conv6-pool-conv16-pool,
//             FC-120, FC-84, FC head.
//  * CnnDeep — a VGG-style 4-conv-block network (16-16-32-32 channels, 3×3
//              kernels). Not part of the paper's evaluation; included because
//              §3.3 argues channel pruning pays off "when the neural network
//              is sufficiently deep" — tests and ablations exercise the mask
//              propagation across conv→conv→conv chains with it.
#pragma once

#include <cstdint>

#include "nn/model.h"

namespace subfed {

class Rng;

/// Immutable description of a model architecture; clients and server build
/// identical models from the same spec (weights initialized from `rng`).
struct ModelSpec {
  enum class Arch { kCnn5, kLeNet5, kCnnDeep };
  Arch arch = Arch::kCnn5;
  std::size_t in_channels = 1;
  std::size_t input_hw = 28;   ///< square inputs
  std::size_t num_classes = 10;
  /// Device every built model's layers run on: "auto" (the process default,
  /// see tensor/device.h) or a registered backend name. Carried in the spec
  /// so every client/server model of a federation uses the same kernels, and
  /// sweeps can put `backend` on an axis.
  std::string backend = "auto";

  /// Builds the architecture with zeroed/default parameters.
  Model build() const;
  /// Builds and initializes weights from `rng` (Kaiming normal).
  Model build_init(Rng& rng) const;

  static ModelSpec cnn5(std::size_t num_classes);     ///< 1×28×28 input
  static ModelSpec lenet5(std::size_t num_classes);   ///< 3×32×32 input
  static ModelSpec cnn_deep(std::size_t num_classes); ///< 3×32×32 input, 4 conv blocks
};

}  // namespace subfed
