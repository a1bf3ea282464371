#include "fl/subfedavg.h"

#include <string>
#include <utility>

#include "core/eval.h"
#include "fl/robust.h"
#include "util/check.h"

namespace subfed {

namespace {

/// Weight mask as a StateDict section (0/1 float tensors, entry-per-entry).
StateDict mask_state(const ModelMask& mask) {
  StateDict state;
  for (const auto& [name, tensor] : mask) state.add(name, tensor);
  return state;
}

/// Channel mask as a StateDict section: one "block<b>" keep-vector per block.
StateDict channel_state(const ChannelMask& mask) {
  StateDict state;
  for (std::size_t b = 0; b < mask.num_blocks(); ++b) {
    std::vector<float> keep(mask.block(b).begin(), mask.block(b).end());
    const Shape shape{keep.size()};
    state.add("block" + std::to_string(b), Tensor(shape, std::move(keep)));
  }
  return state;
}

/// {personal model, weight mask, channel mask} of a client.
StateSections sections_of(const SubFedAvgClient& client) {
  StateSections sections;
  sections.reserve(3);
  sections.push_back(client.personal_state());
  sections.push_back(mask_state(client.weight_mask()));
  sections.push_back(channel_state(client.channel_mask()));
  return sections;
}

ModelMask weight_mask_of(StateDict section) {
  ModelMask mask;
  for (auto& [name, tensor] : section) mask.set(name, std::move(tensor));
  return mask;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace

SubFedAvg::SubFedAvg(FlContext ctx, SubFedAvgConfig config)
    : FederatedAlgorithm(std::move(ctx)), config_(config), arch_(ctx_.spec.build()) {
  config_.train = ctx_.train;
  config_.sgd = ctx_.sgd;
  global_ = initial_state();

  // A never-sampled client's sections are the seeded initial global plus
  // all-ones masks — shared once here instead of materialized per client, so
  // construction is O(1) in the population.
  const ModelMask weight_ones = ModelMask::ones_like(
      arch_, config_.hybrid ? MaskScope::kFcOnly : MaskScope::kAllPrunable);
  init_clients(
      {global_, mask_state(weight_ones), channel_state(ChannelMask::ones_like(arch_))});
  frac_us_.assign(num_clients(), 0.0);
  frac_s_.assign(num_clients(), 0.0);
}

std::string SubFedAvg::name() const {
  return config_.hybrid ? "Sub-FedAvg (Hy)" : "Sub-FedAvg (Un)";
}

ChannelMask SubFedAvg::channel_mask_of(const StateDict& section) const {
  ChannelMask mask = ChannelMask::ones_like(arch_);
  for (std::size_t b = 0; b < mask.num_blocks(); ++b) {
    const Tensor& keep = section[b].second;
    for (std::size_t c = 0; c < mask.block(b).size(); ++c) {
      mask.block(b)[c] = keep[c] != 0.0f ? 1 : 0;
    }
  }
  return mask;
}

ModelMask SubFedAvg::upload_mask(const StateSections& sections) {
  ModelMask weights = weight_mask_of(sections[1]);
  if (!config_.hybrid) return weights;
  return channel_mask_of(sections[2]).to_model_mask(arch_).intersected(weights);
}

SubFedAvgClient SubFedAvg::make_client(std::size_t k, StateSections sections) const {
  return SubFedAvgClient(k, ctx_.spec, config_, ctx_.data->client_ptr(k),
                         Rng(ctx_.seed).split("subfed-client", k), std::move(sections[0]),
                         weight_mask_of(std::move(sections[1])), channel_mask_of(sections[2]));
}

void SubFedAvg::store_client(std::size_t k, StateSections sections) {
  check_client(sections);  // the fractions below read the masks
  const double pruned_us = weight_mask_of(sections[1]).pruned_fraction();
  const double pruned_s = channel_mask_of(sections[2]).pruned_fraction();
  FederatedAlgorithm::store_client(k, std::move(sections));
  frac_us_[k] = pruned_us;
  frac_s_[k] = pruned_s;
}

SubFedAvgClient& SubFedAvg::client(std::size_t k) {
  pinned_.emplace(make_client(k, *clients_.peek(k)));
  return *pinned_;
}

void SubFedAvg::run_round(std::size_t round, std::span<const std::size_t> sampled) {
  // Download: each client needs only the entries its pre-round mask keeps
  // (the client re-applies θ_g ⊙ m_k on arrival, so the masked broadcast is
  // exactly what it would have computed from the full global).
  std::vector<ModelMask> pre_masks(sampled.size());
  std::vector<ClientJob> jobs(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    pre_masks[i] = upload_mask(*clients_.read(sampled[i]));
    jobs[i] = {sampled[i], &global_, &pre_masks[i], {}};
  }

  std::vector<Exchange> exchanges = exchange_round(round, jobs);

  std::vector<ClientUpdate> updates;
  updates.reserve(exchanges.size());
  for (Exchange& exchange : exchanges) updates.push_back(std::move(exchange.update));

  // Mask-aware server defense: distances count only entries each update
  // actually uploaded, so honest heavily-pruned clients are not mistaken for
  // outliers (ROADMAP robustness knob, extended to the masked path).
  if (ctx_.robust_filter > 0.0) {
    const std::vector<std::size_t> passed =
        filter_updates_by_norm(updates, global_, ctx_.robust_filter);
    if (!passed.empty() && passed.size() < updates.size()) {
      filtered_updates_ += updates.size() - passed.size();
      std::vector<ClientUpdate> kept;
      kept.reserve(passed.size());
      for (const std::size_t i : passed) kept.push_back(std::move(updates[i]));
      updates = std::move(kept);
    }
  }

  global_ = strict_ ? sub_fedavg_aggregate_strict(updates, global_)
                    : sub_fedavg_aggregate(updates, global_);
}

ClientResult SubFedAvg::run_client(std::size_t round, const ClientJob& job,
                                   const StateDict& received) {
  // The round RNG is split deterministically from (seed, client, round), so
  // the three sections are the client's complete state.
  SubFedAvgClient client = make_client(job.client, *clients_.read(job.client));
  ClientResult result;
  result.update = client.run_round(received, round);
  result.state = sections_of(client);
  return result;
}

double SubFedAvg::client_test_accuracy(std::size_t k) {
  Model model = ctx_.spec.build();
  model.load_state((*clients_.peek(k))[0]);
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}

std::optional<std::uint64_t> SubFedAvg::evaluation_key(std::size_t k) {
  return clients_.version(k);
}

double SubFedAvg::average_unstructured_pruned() const { return mean(frac_us_); }

double SubFedAvg::average_structured_pruned() const { return mean(frac_s_); }

ReductionReport SubFedAvg::client_reduction(std::size_t k) {
  const StateSectionsPtr sections = clients_.peek(k);
  Model model = ctx_.spec.build();
  model.load_state((*sections)[0]);
  const ChannelMask channel = channel_mask_of((*sections)[2]);
  const ModelMask weights = weight_mask_of((*sections)[1]);
  return reduction_report(model, config_.hybrid ? &channel : nullptr, &weights);
}

std::vector<StateDict> SubFedAvg::checkpoint_state() {
  std::vector<StateDict> sections;
  sections.reserve(1 + 3 * num_clients());
  sections.push_back(global_);
  append_client_sections(sections);
  return sections;
}

void SubFedAvg::restore_checkpoint_state(std::vector<StateDict> sections) {
  SUBFEDAVG_CHECK(sections.size() == 1 + 3 * num_clients(),
                  name() << " checkpoint expects " << 1 + 3 * num_clients()
                         << " sections, got " << sections.size());
  check_section(sections[0], initial_state(), "global model");
  restore_client_sections(std::span<StateDict>(sections).subspan(1));
  global_ = std::move(sections[0]);
}

}  // namespace subfed
