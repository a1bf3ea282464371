#include "fl/standalone.h"

#include "core/eval.h"
#include "util/check.h"

namespace subfed {

Standalone::Standalone(FlContext ctx) : FederatedAlgorithm(std::move(ctx)) {
  store_.init(num_clients(), {initial_state()}, ctx_.client_cache);
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

  std::vector<Exchange> exchanges = exchange_round(round, jobs);

  for (Exchange& exchange : exchanges) {
    if (!exchange.state.empty()) {
      store_.put(exchange.client, {std::move(exchange.state[0])});
    }
  }
}

ClientResult Standalone::run_client(std::size_t round, const ClientJob& job,
                                    const StateDict& received, bool detached) {
  (void)received;  // no federation: the broadcast is an empty ping
  const std::size_t k = job.client;
  // Remote exchange: the client's local model arrives as side-band.
  if (!job.state.empty()) store_.put(k, {job.state[0]});
  const ClientDataPtr data = ctx_.data->client_ptr(k);
  Model model = ctx_.spec.build();
  model.load_state((*store_.read(k))[0]);
  Sgd optimizer(model.parameters(), ctx_.sgd);
  Rng rng = client_round_rng(k, round);
  train_local(model, optimizer, data->train_images, data->train_labels, ctx_.train, rng);
  StateDict trained = model.state();

  ClientResult result;
  if (detached) result.state.push_back(trained);
  store_.put(k, {std::move(trained)});
  return result;
}

std::vector<StateDict> Standalone::client_state_sections(std::size_t k) {
  return {(*store_.read(k))[0]};
}

double Standalone::client_test_accuracy(std::size_t k) {
  Model model = ctx_.spec.build();
  model.load_state((*store_.peek(k))[0]);
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}

std::optional<std::uint64_t> Standalone::evaluation_key(std::size_t k) {
  return store_.version(k);
}

std::vector<StateDict> Standalone::checkpoint_state() {
  std::vector<StateDict> out;
  out.reserve(store_.size());
  for (std::size_t k = 0; k < store_.size(); ++k) out.push_back((*store_.peek(k))[0]);
  return out;
}

void Standalone::restore_checkpoint_state(std::vector<StateDict> sections) {
  SUBFEDAVG_CHECK(sections.size() == store_.size(),
                  "Standalone checkpoint has " << sections.size() << " sections, federation has "
                                               << store_.size() << " clients");
  store_.reset();
  for (std::size_t k = 0; k < sections.size(); ++k) {
    store_.put(k, {std::move(sections[k])});
  }
}

}  // namespace subfed
