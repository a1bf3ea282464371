#include "fl/fedmtl.h"

#include "core/eval.h"

namespace subfed {

namespace {

/// MTL exchanges the model plus same-sized dual/relationship state each
/// direction. The payload carries both halves explicitly ("dual."-prefixed
/// entries) on every transport, so the ledger's 2×-model cost is the payload's
/// own size — and the grad hook's anchor lookup by parameter name simply never
/// matches the dual entries.
StateDict with_dual_state(const StateDict& model_state) {
  StateDict doubled;
  for (const auto& [name, tensor] : model_state) doubled.add(name, tensor);
  for (const auto& [name, tensor] : model_state) doubled.add("dual." + name, tensor);
  return doubled;
}

}  // namespace

FedMtl::FedMtl(FlContext ctx, double lambda)
    : FederatedAlgorithm(std::move(ctx)), lambda_(lambda) {
  init_clients({initial_state()});
  mean_ = initial_state();
}

void FedMtl::recompute_mean() {
  // peek() keeps the reduction cache-neutral and the k-order fixed, so the
  // float summation sequence per entry — and therefore the mean — is
  // bit-identical to the historical all-resident loop regardless of which
  // clients happen to be hot.
  StateDict next = (*clients_.peek(0))[0];
  for (std::size_t k = 1; k < clients_.size(); ++k) {
    const StateSectionsPtr sections = clients_.peek(k);
    const StateDict& personal = (*sections)[0];
    for (std::size_t e = 0; e < next.size(); ++e) {
      next[e].second.add_(personal[e].second);
    }
  }
  for (std::size_t e = 0; e < next.size(); ++e) {
    next[e].second.scale_(1.0f / static_cast<float>(clients_.size()));
  }
  mean_ = std::move(next);
}

void FedMtl::run_round(std::size_t round, std::span<const std::size_t> sampled) {
  // Snapshot the mean so all sampled clients this round see the same anchor.
  const StateDict broadcast = with_dual_state(mean_);

  std::vector<ClientJob> jobs(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    jobs[i] = {sampled[i], &broadcast, nullptr, {}};
  }

  exchange_round(round, jobs);
  recompute_mean();
}

ClientResult FedMtl::run_client(std::size_t round, const ClientJob& job,
                                const StateDict& received) {
  const std::size_t k = job.client;
  const float lambda = static_cast<float>(lambda_);
  const ClientDataPtr data = ctx_.data->client_ptr(k);
  Model model = ctx_.spec.build();
  model.load_state((*clients_.read(k))[0]);

  // Task-relationship pull toward the federation mean as received.
  auto hook = [lambda, &received](Model& m) {
    for (Parameter* p : m.parameters()) {
      const Tensor* g = received.find(p->name);
      if (g == nullptr) continue;
      p->grad.axpy_(lambda, p->value);
      p->grad.axpy_(-lambda, *g);
    }
  };

  Sgd optimizer(model.parameters(), ctx_.sgd);
  Rng rng = client_round_rng(k, round);
  train_local(model, optimizer, data->train_images, data->train_labels, ctx_.train, rng, {},
              hook);
  StateDict trained = model.state();

  ClientResult result;
  result.update.state = with_dual_state(trained);
  result.update.num_examples = data->train_labels.size();
  result.state.push_back(std::move(trained));
  return result;
}

double FedMtl::client_test_accuracy(std::size_t k) {
  Model model = ctx_.spec.build();
  model.load_state((*clients_.peek(k))[0]);
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}

std::optional<std::uint64_t> FedMtl::evaluation_key(std::size_t k) {
  return clients_.version(k);
}

void FedMtl::restore_checkpoint_state(std::vector<StateDict> sections) {
  FederatedAlgorithm::restore_checkpoint_state(std::move(sections));
  recompute_mean();
}

}  // namespace subfed
