#include "nn/model_zoo.h"

#include <memory>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {

namespace {

// Spatial size after a valid (pad-0, stride-1) KxK conv followed by 2x2 pool.
std::size_t conv_pool_out(std::size_t in, std::size_t kernel) {
  return (in - kernel + 1) / 2;
}

Model build_cnn5(const ModelSpec& spec) {
  Model m;
  auto* conv1 = m.add(std::make_unique<Conv2d>("conv1", spec.in_channels, 10, 5));
  auto* bn1 = m.add(std::make_unique<BatchNorm2d>("bn1", 10));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  auto* conv2 = m.add(std::make_unique<Conv2d>("conv2", 10, 20, 5));
  auto* bn2 = m.add(std::make_unique<BatchNorm2d>("bn2", 20));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  m.add(std::make_unique<Flatten>());

  const std::size_t s1 = conv_pool_out(spec.input_hw, 5);   // 28 -> 12
  const std::size_t s2 = conv_pool_out(s1, 5);              // 12 -> 4
  const std::size_t flat = 20 * s2 * s2;
  auto* fc1 = m.add(std::make_unique<Linear>("fc1", flat, 50));
  m.add(std::make_unique<ReLU>());
  auto* fc2 = m.add(std::make_unique<Linear>("fc2", 50, spec.num_classes));

  auto& topo = m.topology();
  topo.conv_blocks.push_back({conv1, bn1, conv2, nullptr, 0});
  topo.conv_blocks.push_back({conv2, bn2, nullptr, fc1, s2 * s2});
  topo.fc_layers = {fc1, fc2};
  const std::size_t c1 = spec.input_hw - 5 + 1;
  topo.conv_out_hw = {{c1, c1}, {s1 - 5 + 1, s1 - 5 + 1}};
  return m;
}

Model build_lenet5(const ModelSpec& spec) {
  Model m;
  auto* conv1 = m.add(std::make_unique<Conv2d>("conv1", spec.in_channels, 6, 5));
  auto* bn1 = m.add(std::make_unique<BatchNorm2d>("bn1", 6));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  auto* conv2 = m.add(std::make_unique<Conv2d>("conv2", 6, 16, 5));
  auto* bn2 = m.add(std::make_unique<BatchNorm2d>("bn2", 16));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  m.add(std::make_unique<Flatten>());

  const std::size_t s1 = conv_pool_out(spec.input_hw, 5);   // 32 -> 14
  const std::size_t s2 = conv_pool_out(s1, 5);              // 14 -> 5
  const std::size_t flat = 16 * s2 * s2;                    // 400
  auto* fc1 = m.add(std::make_unique<Linear>("fc1", flat, 120));
  m.add(std::make_unique<ReLU>());
  auto* fc2 = m.add(std::make_unique<Linear>("fc2", 120, 84));
  m.add(std::make_unique<ReLU>());
  auto* fc3 = m.add(std::make_unique<Linear>("fc3", 84, spec.num_classes));

  auto& topo = m.topology();
  topo.conv_blocks.push_back({conv1, bn1, conv2, nullptr, 0});
  topo.conv_blocks.push_back({conv2, bn2, nullptr, fc1, s2 * s2});
  topo.fc_layers = {fc1, fc2, fc3};
  const std::size_t c1 = spec.input_hw - 5 + 1;
  topo.conv_out_hw = {{c1, c1}, {s1 - 5 + 1, s1 - 5 + 1}};
  return m;
}

Model build_cnn_deep(const ModelSpec& spec) {
  // VGG-style: [conv16, conv16, pool] [conv32, conv32, pool] fc64 fc-head.
  // All 3×3 pad-1 convs keep spatial size, so 32 → 16 → 8 through the pools.
  Model m;
  auto* conv1 = m.add(std::make_unique<Conv2d>("conv1", spec.in_channels, 16, 3, 1, 1));
  auto* bn1 = m.add(std::make_unique<BatchNorm2d>("bn1", 16));
  m.add(std::make_unique<ReLU>());
  auto* conv2 = m.add(std::make_unique<Conv2d>("conv2", 16, 16, 3, 1, 1));
  auto* bn2 = m.add(std::make_unique<BatchNorm2d>("bn2", 16));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  auto* conv3 = m.add(std::make_unique<Conv2d>("conv3", 16, 32, 3, 1, 1));
  auto* bn3 = m.add(std::make_unique<BatchNorm2d>("bn3", 32));
  m.add(std::make_unique<ReLU>());
  auto* conv4 = m.add(std::make_unique<Conv2d>("conv4", 32, 32, 3, 1, 1));
  auto* bn4 = m.add(std::make_unique<BatchNorm2d>("bn4", 32));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  m.add(std::make_unique<Flatten>());

  const std::size_t s = spec.input_hw / 4;  // two 2x2 pools
  const std::size_t flat = 32 * s * s;
  auto* fc1 = m.add(std::make_unique<Linear>("fc1", flat, 64));
  m.add(std::make_unique<ReLU>());
  auto* fc2 = m.add(std::make_unique<Linear>("fc2", 64, spec.num_classes));

  auto& topo = m.topology();
  topo.conv_blocks.push_back({conv1, bn1, conv2, nullptr, 0});
  topo.conv_blocks.push_back({conv2, bn2, conv3, nullptr, 0});
  topo.conv_blocks.push_back({conv3, bn3, conv4, nullptr, 0});
  topo.conv_blocks.push_back({conv4, bn4, nullptr, fc1, s * s});
  topo.fc_layers = {fc1, fc2};
  const std::size_t hw = spec.input_hw, half = hw / 2;
  topo.conv_out_hw = {{hw, hw}, {hw, hw}, {half, half}, {half, half}};
  return m;
}

}  // namespace

Model ModelSpec::build() const {
  Model m;
  switch (arch) {
    case Arch::kCnn5: m = build_cnn5(*this); break;
    case Arch::kLeNet5: m = build_lenet5(*this); break;
    case Arch::kCnnDeep: m = build_cnn_deep(*this); break;
    default: SUBFEDAVG_CHECK(false, "unknown arch");
  }
  if (backend != "auto") m.set_device(&get_device(backend));
  return m;
}

Model ModelSpec::build_init(Rng& rng) const {
  Model m = build();
  for (std::size_t i = 0; i < m.num_layers(); ++i) {
    Layer& layer = m.layer(i);
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      Rng layer_rng = rng.split("init.conv", i);
      conv->init(layer_rng);
    } else if (auto* fc = dynamic_cast<Linear*>(&layer)) {
      Rng layer_rng = rng.split("init.fc", i);
      fc->init(layer_rng);
    }
  }
  return m;
}

ModelSpec ModelSpec::cnn5(std::size_t num_classes) {
  return ModelSpec{Arch::kCnn5, 1, 28, num_classes};
}

ModelSpec ModelSpec::lenet5(std::size_t num_classes) {
  return ModelSpec{Arch::kLeNet5, 3, 32, num_classes};
}

ModelSpec ModelSpec::cnn_deep(std::size_t num_classes) {
  return ModelSpec{Arch::kCnnDeep, 3, 32, num_classes};
}

}  // namespace subfed
