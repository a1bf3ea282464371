#include "fl/subfedavg.h"

#include <iterator>
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

/// Throws CheckError unless `section` has `like`'s entry names and shapes.
void check_section(const StateDict& section, const StateDict& like, const char* what) {
  SUBFEDAVG_CHECK(section.size() == like.size(), what << " has " << section.size()
                                                      << " entries, expected " << like.size());
  for (std::size_t e = 0; e < like.size(); ++e) {
    SUBFEDAVG_CHECK(section[e].first == like[e].first &&
                        section[e].second.shape() == like[e].second.shape(),
                    what << " entry " << e << " '" << section[e].first
                         << "' does not match the architecture");
  }
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
  store_.init(num_clients(),
              {global_, mask_state(weight_ones), channel_state(ChannelMask::ones_like(arch_))},
              ctx_.client_cache);
  frac_us_.assign(num_clients(), 0.0);
  frac_s_.assign(num_clients(), 0.0);
}

std::string SubFedAvg::name() const {
  return config_.hybrid ? "Sub-FedAvg (Hy)" : "Sub-FedAvg (Un)";
}

void SubFedAvg::check_layout(std::span<const StateDict> sections) const {
  const StateSections& like = store_.initial_sections();
  SUBFEDAVG_CHECK(sections.size() == like.size(), name() << " client state expects "
                                                         << like.size() << " sections, got "
                                                         << sections.size());
  check_section(sections[0], like[0], "personal model");
  check_section(sections[1], like[1], "weight mask");
  check_section(sections[2], like[2], "channel mask");
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

void SubFedAvg::put_client(std::size_t k, StateSections sections) {
  const double pruned_us = weight_mask_of(sections[1]).pruned_fraction();
  const double pruned_s = channel_mask_of(sections[2]).pruned_fraction();
  store_.put(k, std::move(sections));
  frac_us_[k] = pruned_us;
  frac_s_[k] = pruned_s;
}

SubFedAvgClient& SubFedAvg::client(std::size_t k) {
  pinned_.emplace(make_client(k, *store_.peek(k)));
  return *pinned_;
}

void SubFedAvg::run_round(std::size_t round, std::span<const std::size_t> sampled) {
  // Download: each client needs only the entries its pre-round mask keeps
  // (the client re-applies θ_g ⊙ m_k on arrival, so the masked broadcast is
  // exactly what it would have computed from the full global).
  std::vector<ModelMask> pre_masks(sampled.size());
  std::vector<ClientJob> jobs(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    pre_masks[i] = upload_mask(*store_.read(sampled[i]));
    jobs[i] = {sampled[i], &global_, &pre_masks[i], 1, {}};
  }

  std::vector<Exchange> exchanges = exchange_round(round, jobs);

  std::vector<ClientUpdate> updates;
  updates.reserve(exchanges.size());
  for (Exchange& exchange : exchanges) {
    // A detached round mutated a worker-process copy of the client; its
    // side-band sections bring this process's copy up to date.
    if (!exchange.state.empty()) {
      check_layout(exchange.state);
      put_client(exchange.client, std::move(exchange.state));
    }
    updates.push_back(std::move(exchange.update));
  }

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
                                   const StateDict& received, bool detached) {
  // Remote exchange: the coordinator's client mirror — personal model, weight
  // mask, channel mask — arrives as side-band. The round RNG is split
  // deterministically from (seed, client, round), so the mirror is the
  // client's complete state.
  if (!job.state.empty()) check_layout(job.state);
  SubFedAvgClient client = make_client(
      job.client, job.state.empty() ? *store_.read(job.client) : job.state);
  ClientResult result;
  result.update = client.run_round(received, round);
  StateSections sections = sections_of(client);
  if (detached) result.state = sections;
  put_client(job.client, std::move(sections));
  return result;
}

std::vector<StateDict> SubFedAvg::client_state_sections(std::size_t k) {
  return *store_.peek(k);
}

double SubFedAvg::client_test_accuracy(std::size_t k) {
  Model model = ctx_.spec.build();
  model.load_state((*store_.peek(k))[0]);
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}

std::optional<std::uint64_t> SubFedAvg::evaluation_key(std::size_t k) {
  return store_.version(k);
}

double SubFedAvg::average_unstructured_pruned() const { return mean(frac_us_); }

double SubFedAvg::average_structured_pruned() const { return mean(frac_s_); }

ReductionReport SubFedAvg::client_reduction(std::size_t k) {
  const StateSectionsPtr sections = store_.peek(k);
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
  for (std::size_t k = 0; k < num_clients(); ++k) {
    const StateSectionsPtr client = store_.peek(k);
    sections.insert(sections.end(), client->begin(), client->end());
  }
  return sections;
}

void SubFedAvg::restore_checkpoint_state(std::vector<StateDict> sections) {
  SUBFEDAVG_CHECK(sections.size() == 1 + 3 * num_clients(),
                  name() << " checkpoint expects " << 1 + 3 * num_clients()
                         << " sections, got " << sections.size());
  check_section(sections[0], initial_state(), "global model");
  for (std::size_t k = 0; k < num_clients(); ++k) {
    check_layout({sections.data() + 1 + 3 * k, 3});
  }
  global_ = std::move(sections[0]);
  store_.reset();
  for (std::size_t k = 0; k < num_clients(); ++k) {
    const auto first = std::make_move_iterator(sections.begin() + 1 + 3 * k);
    put_client(k, StateSections(first, first + 3));
  }
}

}  // namespace subfed
