#include "fl/fedavg.h"

#include "core/eval.h"
#include "fl/robust.h"
#include "util/check.h"

namespace subfed {

FedAvg::FedAvg(FlContext ctx) : FederatedAlgorithm(std::move(ctx)) {
  global_ = initial_state();
}

void FedAvg::run_round(std::size_t round, std::span<const std::size_t> sampled) {
  std::vector<ClientJob> jobs(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    jobs[i] = {sampled[i], &global_, nullptr, 1, {}};
  }

  std::vector<Exchange> exchanges = exchange_round(round, jobs);

  std::vector<ClientUpdate> updates;
  updates.reserve(exchanges.size());
  for (Exchange& exchange : exchanges) updates.push_back(std::move(exchange.update));

  // Server-side defense: drop updates whose distance from the previous global
  // exceeds robust_filter × the cohort median before aggregating.
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

  global_ = fedavg_aggregate(updates);
}

ClientResult FedAvg::run_client(std::size_t round, const ClientJob& job,
                                const StateDict& received, bool detached) {
  (void)detached;  // stateless client: the upload carries everything
  const ClientDataPtr data = ctx_.data->client_ptr(job.client);
  Model model = ctx_.spec.build();
  model.load_state(received);

  Sgd optimizer(model.parameters(), ctx_.sgd);
  Rng rng = client_round_rng(job.client, round);
  train_local(model, optimizer, data->train_images, data->train_labels, ctx_.train, rng, {},
              make_grad_hook(received));

  ClientResult result;
  result.update.state = model.state();
  result.update.num_examples = data->train_labels.size();
  return result;
}

double FedAvg::client_test_accuracy(std::size_t k) {
  Model model = ctx_.spec.build();
  model.load_state(global_);
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}

FedProx::FedProx(FlContext ctx, double mu) : FedAvg(std::move(ctx)), mu_(mu) {}

GradHook FedProx::make_grad_hook(const StateDict& received) {
  // Anchor the proximal term on the broadcast the client received: what a
  // deployed client would actually hold (and a by-value copy, so the hook
  // stays valid while global_ is being replaced by aggregation).
  const float mu = static_cast<float>(mu_);
  StateDict anchor = received;
  return [mu, anchor = std::move(anchor)](Model& model) {
    for (Parameter* p : model.parameters()) {
      const Tensor* g = anchor.find(p->name);
      if (g == nullptr) continue;
      // grad += μ(w − w_global)
      p->grad.axpy_(mu, p->value);
      p->grad.axpy_(-mu, *g);
    }
  };
}


std::vector<StateDict> FedAvg::checkpoint_state() { return {global_}; }

void FedAvg::restore_checkpoint_state(std::vector<StateDict> sections) {
  SUBFEDAVG_CHECK(sections.size() == 1,
                  name() << " checkpoint expects 1 section, got " << sections.size());
  global_ = std::move(sections.front());
}

}  // namespace subfed
