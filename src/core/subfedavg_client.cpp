#include "core/subfedavg_client.h"

#include "core/eval.h"
#include "pruning/unstructured.h"
#include "util/check.h"
#include "util/logging.h"

namespace subfed {

SubFedAvgClient::SubFedAvgClient(std::size_t id, const ModelSpec& spec,
                                 SubFedAvgConfig config, ClientDataPtr data, Rng rng)
    : SubFedAvgClient(id, spec, std::move(config), std::move(data), rng, {}, {}, {}) {
  weight_mask_ = ModelMask::ones_like(
      model_, config_.hybrid ? MaskScope::kFcOnly : MaskScope::kAllPrunable);
  channel_mask_ = ChannelMask::ones_like(model_);

  // Until first sampled, the personal model is the (zero-weight) template;
  // the algorithm seeds clients with the initial global state before round 0.
  personal_state_ = model_.state();
}

void SubFedAvgClient::seed_personal(const StateDict& state) { personal_state_ = state; }

SubFedAvgClient::SubFedAvgClient(std::size_t id, const ModelSpec& spec,
                                 SubFedAvgConfig config, ClientDataPtr data, Rng rng,
                                 StateDict personal, ModelMask weight_mask,
                                 ChannelMask channel_mask)
    : id_(id),
      spec_(spec),
      config_(std::move(config)),
      data_(std::move(data)),
      rng_(rng),
      model_(spec.build()),
      personal_state_(std::move(personal)),
      weight_mask_(std::move(weight_mask)),
      channel_mask_(std::move(channel_mask)),
      pruned_us_(weight_mask_.pruned_fraction()),
      pruned_s_(channel_mask_.pruned_fraction()) {
  SUBFEDAVG_CHECK(data_ != nullptr, "client needs data");
  if (config_.hybrid) model_.set_bn_l1(config_.bn_l1);
}

ModelMask SubFedAvgClient::combined_mask() {
  if (!config_.hybrid) return weight_mask_;
  return channel_mask_.to_model_mask(model_).intersected(weight_mask_);
}

ClientUpdate SubFedAvgClient::run_round(const StateDict& global, std::size_t round,
                                        ClientRoundReport* report) {
  // 1. Download + personalize: θ ← θ_g ⊙ m_k.
  model_.load_state(global);
  ModelMask own_mask = combined_mask();
  own_mask.apply_to_weights(model_);

  Sgd optimizer(model_.parameters(), config_.sgd);

  // Per-round pruning step targets (fraction of remaining pruned this round).
  const double next_us = next_pruned_fraction(pruned_us_, config_.unstructured.step_rate,
                                              config_.unstructured.target_rate);
  const double next_s = next_pruned_fraction(pruned_s_, config_.structured.step_rate,
                                             config_.structured.target_rate);

  // Candidate masks captured at the end of the first and last local epochs.
  std::optional<ModelMask> us_first, us_last;
  std::optional<ChannelMask> s_first, s_last;
  const std::size_t last_epoch = config_.train.epochs;
  auto on_epoch_end = [&](std::size_t epoch) {
    if (epoch != 1 && epoch != last_epoch) return;
    ModelMask us = derive_magnitude_mask(model_, weight_mask_, next_us);
    std::optional<ChannelMask> s;
    if (config_.hybrid) s = derive_channel_mask(model_, channel_mask_, next_s);
    // With a single local epoch the same candidates serve as both first- and
    // last-epoch masks (Δ = 0 → no pruning), so copy before the final move.
    if (epoch == 1) {
      us_first = us;
      s_first = s;
    }
    if (epoch == last_epoch) {
      us_last = std::move(us);
      s_last = std::move(s);
    }
  };

  // Pruned weights stay frozen at zero: grads are masked before each step.
  auto grad_hook = [&](Model& m) { own_mask.apply_to_grads(m); };

  Rng round_rng = rng_.split("round", round);
  const TrainStats train_stats =
      train_local(model_, optimizer, data_->train_images, data_->train_labels,
                  config_.train, round_rng, on_epoch_end, grad_hook);

  // 2. Gate evaluation on the trained model θ^{j,le}.
  const EvalStats val = evaluate(model_, data_->val_images, data_->val_labels);

  ClientRoundReport local_report;
  local_report.val_accuracy = val.accuracy;
  local_report.train_loss = train_stats.last_epoch_loss;

  SUBFEDAVG_CHECK(us_first.has_value() && us_last.has_value(), "epoch masks missing");
  local_report.mask_distance_us = ModelMask::hamming_distance(*us_first, *us_last);
  const PruneGateInputs us_inputs{val.accuracy, pruned_us_, local_report.mask_distance_us};
  if (prune_gate_open(config_.unstructured, us_inputs)) {
    weight_mask_ = std::move(*us_last);
    pruned_us_ = weight_mask_.pruned_fraction();
    local_report.pruned_us = true;
  }

  if (config_.hybrid) {
    SUBFEDAVG_CHECK(s_first.has_value() && s_last.has_value(), "channel masks missing");
    local_report.mask_distance_s = ChannelMask::hamming_distance(*s_first, *s_last);
    const PruneGateInputs s_inputs{val.accuracy, pruned_s_, local_report.mask_distance_s};
    if (prune_gate_open(config_.structured, s_inputs)) {
      channel_mask_ = std::move(*s_last);
      pruned_s_ = channel_mask_.pruned_fraction();
      local_report.pruned_s = true;
    }
  }
  local_report.pruned_fraction_us = pruned_us_;
  local_report.pruned_fraction_s = pruned_s_;

  // 3. Apply the committed masks: θ^{j+1} = θ^{j,le} ⊙ m.
  own_mask = combined_mask();
  own_mask.apply_to_weights(model_);
  personal_state_ = model_.state();

  SUBFEDAVG_LOG(kDebug) << "client " << id_ << " round " << round << " val="
                        << val.accuracy << " us_pruned=" << pruned_us_
                        << " s_pruned=" << pruned_s_;
  if (report != nullptr) *report = local_report;

  ClientUpdate update;
  update.state = personal_state_;
  update.mask = std::move(own_mask);
  update.num_examples = data_->train_labels.size();
  return update;
}

EvalStats SubFedAvgClient::evaluate_test(const TestSet& test) {
  model_.load_state(personal_state_);
  return evaluate_client_test(model_, test);
}

EvalStats SubFedAvgClient::evaluate_val() {
  model_.load_state(personal_state_);
  return evaluate(model_, data_->val_images, data_->val_labels);
}

}  // namespace subfed
