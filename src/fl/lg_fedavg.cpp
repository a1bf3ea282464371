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
  init_clients({initial_state()});
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
  // stays client-local (it rides down and back as uncharged side-band state
  // when the round runs in a subprocess or tcp worker).
  std::vector<ClientJob> jobs(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    jobs[i] = {sampled[i], &global_head_, nullptr, {}};
  }

  std::vector<Exchange> exchanges = exchange_round(round, jobs);

  std::vector<ClientUpdate> updates;
  updates.reserve(exchanges.size());
  for (Exchange& exchange : exchanges) updates.push_back(std::move(exchange.update));
  global_head_ = fedavg_aggregate(updates);
}

ClientResult LgFedAvg::run_client(std::size_t round, const ClientJob& job,
                                  const StateDict& received) {
  const std::size_t k = job.client;
  const ClientDataPtr data = ctx_.data->client_ptr(k);

  StateDict start = (*clients_.read(k))[0];
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
  result.state.push_back(std::move(trained));
  return result;
}

double LgFedAvg::client_test_accuracy(std::size_t k) {
  StateDict state = (*clients_.peek(k))[0];
  merge_head(state);
  Model model = ctx_.spec.build();
  model.load_state(state);
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}

std::vector<StateDict> LgFedAvg::checkpoint_state() {
  std::vector<StateDict> sections;
  append_client_sections(sections);
  sections.push_back(global_head_);
  return sections;
}

void LgFedAvg::restore_checkpoint_state(std::vector<StateDict> sections) {
  SUBFEDAVG_CHECK(sections.size() == num_clients() + 1,
                  "LG-FedAvg checkpoint expects " << num_clients() + 1 << " sections, got "
                                                  << sections.size());
  check_section(sections.back(), extract_head(initial_state()), "global head");
  restore_client_sections({sections.data(), num_clients()});
  global_head_ = std::move(sections.back());
}

}  // namespace subfed
