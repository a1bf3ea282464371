#include "nn/model.h"

#include "nn/batchnorm.h"
#include "util/check.h"

namespace subfed {

Tensor Model::forward(const Tensor& input, bool train) {
  SUBFEDAVG_CHECK(!layers_.empty(), "empty model");
  Tensor x = layers_.front()->forward(input, train);
  for (std::size_t i = 1; i < layers_.size(); ++i) x = layers_[i]->forward(x, train);
  return x;
}

void Model::backward(const Tensor& grad_logits) {
  Tensor g = grad_logits;
  for (std::size_t i = layers_.size(); i-- > 0;) g = layers_[i]->backward(g);
}

std::vector<Parameter*> Model::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Parameter*> Model::buffers() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* b : layer->buffers()) out.push_back(b);
  }
  return out;
}

std::vector<Parameter*> Model::state_entries() {
  std::vector<Parameter*> out = parameters();
  for (Parameter* b : buffers()) out.push_back(b);
  return out;
}

StateDict Model::state() const {
  StateDict dict;
  // state_entries() is non-const only because Parameter pointers are mutable;
  // values are copied out, so const_cast here does not mutate the model.
  auto* self = const_cast<Model*>(this);
  for (Parameter* p : self->state_entries()) dict.add(p->name, p->value);
  return dict;
}

void Model::load_state(const StateDict& state) {
  auto entries = state_entries();
  SUBFEDAVG_CHECK(entries.size() == state.size(),
                  "state size " << state.size() << " != model entries " << entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [name, tensor] = state[i];
    SUBFEDAVG_CHECK(name == entries[i]->name,
                    "state entry " << i << " name '" << name << "' != '"
                                   << entries[i]->name << "'");
    SUBFEDAVG_CHECK(tensor.shape() == entries[i]->value.shape(),
                    "state entry '" << name << "' shape mismatch");
    entries[i]->value = tensor;
    // Loaded values may carry a different sparsity pattern (e.g. a pruned
    // global model) — invalidate any cached density decisions.
    ++entries[i]->mask_epoch;
  }
}

void Model::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

std::size_t Model::num_parameters() const {
  std::size_t n = 0;
  auto* self = const_cast<Model*>(this);
  for (Parameter* p : self->parameters()) n += p->value.numel();
  return n;
}

void Model::set_bn_l1(float strength) {
  for (auto& layer : layers_) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(layer.get())) bn->set_l1_gamma(strength);
  }
}

void Model::set_device(const Device* device) noexcept {
  for (auto& layer : layers_) layer->set_device(device);
}

}  // namespace subfed
