#include "fl/standalone.h"

#include "core/eval.h"

namespace subfed {

Standalone::Standalone(FlContext ctx) : FederatedAlgorithm(std::move(ctx)) {
  init_clients({initial_state()});
}

void Standalone::run_round(std::size_t round, std::span<const std::size_t> sampled) {
  // No model traffic: the channel carries empty coordinator pings (zero
  // payload-model bytes in memory mode, a few header bytes when
  // materialized), which still buys standalone the transports' crash
  // isolation and a slot in the round-time model.
  static const StateDict kEmptyPayload;
  std::vector<ClientJob> jobs(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    jobs[i] = {sampled[i], &kEmptyPayload, nullptr, {}};
  }
  exchange_round(round, jobs);
}

ClientResult Standalone::run_client(std::size_t round, const ClientJob& job,
                                    const StateDict& received) {
  (void)received;  // no federation: the broadcast is an empty ping
  const std::size_t k = job.client;
  const ClientDataPtr data = ctx_.data->client_ptr(k);
  Model model = ctx_.spec.build();
  model.load_state((*clients_.read(k))[0]);
  Sgd optimizer(model.parameters(), ctx_.sgd);
  Rng rng = client_round_rng(k, round);
  train_local(model, optimizer, data->train_images, data->train_labels, ctx_.train, rng);

  ClientResult result;
  result.state.push_back(model.state());
  return result;
}

double Standalone::client_test_accuracy(std::size_t k) {
  Model model = ctx_.spec.build();
  model.load_state((*clients_.peek(k))[0]);
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}

std::optional<std::uint64_t> Standalone::evaluation_key(std::size_t k) {
  return clients_.version(k);
}

}  // namespace subfed
