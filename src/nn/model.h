// Sequential model container with named state and pruning-relevant topology.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/parameter.h"

namespace subfed {

class Conv2d;
class BatchNorm2d;
class Linear;

/// One conv "block" as seen by structured pruning: the conv layer, its
/// BatchNorm partner, and how its output channels feed the next stage.
struct ConvBlock {
  Conv2d* conv = nullptr;
  BatchNorm2d* bn = nullptr;
  /// Next consumer of this block's output channels: either another conv
  /// (next_conv) or the first FC layer (next_fc with spatial_per_channel
  /// input columns per channel).
  Conv2d* next_conv = nullptr;
  Linear* next_fc = nullptr;
  std::size_t spatial_per_channel = 0;  ///< H·W entering the flatten, if next_fc
};

/// Pruning-relevant wiring of a sequential CNN.
struct ModelTopology {
  std::vector<ConvBlock> conv_blocks;
  std::vector<Linear*> fc_layers;  ///< in order; unstructured pruning in hybrid mode
  /// Spatial output sizes (H, W) of each conv layer at the model's nominal
  /// input resolution — used by the FLOP counter.
  std::vector<std::pair<std::size_t, std::size_t>> conv_out_hw;
};

/// A feed-forward stack of layers with flat named state.
///
/// Models are created by the factories in model_zoo.h; all clients plus the
/// server construct the identical architecture so StateDicts align
/// positionally.
class Model {
 public:
  Model() = default;

  Model(const Model&) = delete;            // layers own cached activations;
  Model& operator=(const Model&) = delete; // copy via state() / load_state()
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer; returns a typed pointer for topology wiring. The first
  /// layer's input gradient is never read, so it is told not to compute it.
  template <typename L>
  L* add(std::unique_ptr<L> layer) {
    L* raw = layer.get();
    if (layers_.empty()) raw->set_needs_input_grad(false);
    layers_.push_back(std::move(layer));
    return raw;
  }

  Tensor forward(const Tensor& input, bool train);
  /// Backpropagates dLoss/dLogits through every layer (reverse order),
  /// accumulating parameter gradients.
  void backward(const Tensor& grad_logits);

  std::vector<Parameter*> parameters();
  std::vector<Parameter*> buffers();
  /// Parameters followed by buffers — the full communicated/aggregated state.
  std::vector<Parameter*> state_entries();

  /// Deep-copies current values (params + buffers) into a StateDict.
  StateDict state() const;
  /// Loads values by position; names and shapes must match exactly.
  void load_state(const StateDict& state);

  void zero_grad();

  /// Total learnable parameter scalars (excludes buffers).
  std::size_t num_parameters() const;

  std::size_t num_layers() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  ModelTopology& topology() noexcept { return topology_; }
  const ModelTopology& topology() const noexcept { return topology_; }

  /// Sets the slimming L1 strength on every BatchNorm layer.
  void set_bn_l1(float strength);

  /// Routes every layer's GEMM/im2col calls through `device` (nullptr
  /// restores the process default). See tensor/device.h.
  void set_device(const Device* device) noexcept;

 private:
  std::vector<LayerPtr> layers_;
  ModelTopology topology_;
};

/// Builds a new model of the same architecture as `reference` would be built
/// by its factory; used indirectly via ModelFactory in model_zoo.h.
using ModelFactory = std::function<Model()>;

}  // namespace subfed
