#include "nn/sgd.h"

#include "util/check.h"

namespace subfed {

Sgd::Sgd(std::vector<Parameter*> params, SgdConfig config)
    : params_(std::move(params)), config_(config) {
  SUBFEDAVG_CHECK(!params_.empty(), "optimizer needs parameters");
  velocity_.reserve(params_.size());
  for (const Parameter* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::step() {
  const float lr = config_.lr, momentum = config_.momentum, wd = config_.weight_decay;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    const std::size_t count = p.value.numel();
    SUBFEDAVG_CHECK(p.grad.numel() == count && velocity_[i].numel() == count,
                    "sgd state of '" << p.name << "' does not match its value");
    float* w = p.value.data();
    const float* grad = p.grad.data();
    float* v = velocity_[i].data();
    for (std::size_t j = 0; j < count; ++j) {
      float g = grad[j];
      if (wd != 0.0f) g += wd * w[j];
      v[j] = momentum * v[j] + g;
      w[j] -= lr * v[j];
    }
    p.grad.zero();
  }
}

void Sgd::reset_momentum() {
  for (auto& v : velocity_) v.zero();
}

}  // namespace subfed
