#include "fl/lg_fedavg.h"

#include "core/eval.h"
#include "util/check.h"

namespace subfed {

bool LgFedAvg::is_global_entry(const std::string& name) {
  return name.rfind("fc", 0) == 0;  // fc1.weight, fc2.bias, ...
}

namespace {

StateDict extract_head(const StateDict& full) {
  StateDict head;
  for (const auto& [name, tensor] : full) {
    if (LgFedAvg::is_global_entry(name)) head.add(name, tensor);
  }
  return head;
}

}  // namespace

LgFedAvg::LgFedAvg(FlContext ctx) : FederatedAlgorithm(std::move(ctx)) {
  store_.init(num_clients(), {initial_state()}, ctx_.client_cache);
  global_head_ = extract_head(initial_state());
  SUBFEDAVG_CHECK(!global_head_.empty(), "model has no FC head to federate");
}

void LgFedAvg::merge_head(StateDict& state) const {
  for (auto& [name, tensor] : state) {
    if (const Tensor* g = global_head_.find(name)) tensor = *g;
  }
}

void LgFedAvg::run_round(std::size_t round, std::span<const std::size_t> sampled) {
  // Only the FC head crosses the channel; the convolutional representation
  // stays client-local (it rides back as an uncharged side-band mirror when
  // the round ran in a detached worker).
  std::vector<ClientJob> jobs(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    jobs[i] = {sampled[i], &global_head_, nullptr, {}};
  }

  std::vector<Exchange> exchanges = exchange_round(round, jobs);

  std::vector<ClientUpdate> updates;
  updates.reserve(exchanges.size());
  for (Exchange& exchange : exchanges) {
    if (!exchange.state.empty()) {
      store_.put(exchange.client, {std::move(exchange.state[0])});
    }
    updates.push_back(std::move(exchange.update));
  }
  global_head_ = fedavg_aggregate(updates);
}

ClientResult LgFedAvg::run_client(std::size_t round, const ClientJob& job,
                                  const StateDict& received, bool detached) {
  const std::size_t k = job.client;
  // Remote exchange: the client's full personal state arrives as side-band.
  if (!job.state.empty()) store_.put(k, {job.state[0]});
  const ClientDataPtr data = ctx_.data->client_ptr(k);

  StateDict start = (*store_.read(k))[0];
  for (auto& [name, tensor] : start) {
    if (const Tensor* g = received.find(name)) tensor = *g;
  }

  Model model = ctx_.spec.build();
  model.load_state(start);
  Sgd optimizer(model.parameters(), ctx_.sgd);
  Rng rng = client_round_rng(k, round);
  train_local(model, optimizer, data->train_images, data->train_labels, ctx_.train, rng);

  StateDict trained = model.state();
  ClientResult result;
  result.update.state = extract_head(trained);
  result.update.num_examples = data->train_labels.size();
  if (detached) result.state.push_back(trained);
  store_.put(k, {std::move(trained)});
  return result;
}

std::vector<StateDict> LgFedAvg::client_state_sections(std::size_t k) {
  return {(*store_.read(k))[0]};
}

double LgFedAvg::client_test_accuracy(std::size_t k) {
  StateDict state = (*store_.peek(k))[0];
  merge_head(state);
  Model model = ctx_.spec.build();
  model.load_state(state);
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}


std::vector<StateDict> LgFedAvg::checkpoint_state() {
  std::vector<StateDict> sections;
  sections.reserve(store_.size() + 1);
  for (std::size_t k = 0; k < store_.size(); ++k) {
    sections.push_back((*store_.peek(k))[0]);
  }
  sections.push_back(global_head_);
  return sections;
}

void LgFedAvg::restore_checkpoint_state(std::vector<StateDict> sections) {
  SUBFEDAVG_CHECK(sections.size() == store_.size() + 1,
                  "LG-FedAvg checkpoint expects " << store_.size() + 1 << " sections, got "
                                                  << sections.size());
  global_head_ = std::move(sections.back());
  sections.pop_back();
  store_.reset();
  for (std::size_t k = 0; k < sections.size(); ++k) {
    store_.put(k, {std::move(sections[k])});
  }
}

}  // namespace subfed
