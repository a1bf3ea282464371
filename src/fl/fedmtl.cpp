#include "fl/fedmtl.h"

#include "core/eval.h"
#include "util/check.h"

namespace subfed {

namespace {

/// MTL exchanges the model plus same-sized dual/relationship state each
/// direction. The wire payload carries both halves explicitly ("dual."-
/// prefixed entries), so the ledger's 2×-model cost is materialized, not
/// modeled — and the grad hook's anchor lookup by parameter name simply never
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
  store_.init(num_clients(), {initial_state()}, ctx_.client_cache);
  mean_ = initial_state();
}

void FedMtl::recompute_mean() {
  // peek() keeps the reduction cache-neutral and the k-order fixed, so the
  // float summation sequence per entry — and therefore the mean — is
  // bit-identical to the historical all-resident loop regardless of which
  // clients happen to be hot.
  StateDict next = (*store_.peek(0))[0];
  for (std::size_t k = 1; k < store_.size(); ++k) {
    const StateSectionsPtr sections = store_.peek(k);
    const StateDict& personal = (*sections)[0];
    for (std::size_t e = 0; e < next.size(); ++e) {
      next[e].second.add_(personal[e].second);
    }
  }
  for (std::size_t e = 0; e < next.size(); ++e) {
    next[e].second.scale_(1.0f / static_cast<float>(store_.size()));
  }
  mean_ = std::move(next);
}

void FedMtl::run_round(std::size_t round, std::span<const std::size_t> sampled) {
  // Snapshot the mean so all sampled clients this round see the same anchor.
  // Materializing transports carry the dual state as real payload entries;
  // the memory fast path charges the same 2× bytes through payload_copies
  // without ever building the copies.
  const bool materialized = channel_->config().transport != "memory";
  const std::size_t copies = materialized ? 1 : 2;
  const StateDict broadcast = materialized ? with_dual_state(mean_) : mean_;

  std::vector<ClientJob> jobs(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    jobs[i] = {sampled[i], &broadcast, nullptr, copies, {}};
  }

  std::vector<Exchange> exchanges = exchange_round(round, jobs);

  for (Exchange& exchange : exchanges) {
    if (!exchange.state.empty()) {
      store_.put(exchange.client, {std::move(exchange.state[0])});
    }
  }
  recompute_mean();
}

ClientResult FedMtl::run_client(std::size_t round, const ClientJob& job,
                                const StateDict& received, bool detached) {
  const std::size_t k = job.client;
  // Remote exchange: the client's personal model arrives as side-band. Note
  // `materialized` is true both here (the worker's mirror channel is
  // loopback) and on a tcp coordinator, so the wire payloads match loopback
  // byte-for-byte.
  if (!job.state.empty()) store_.put(k, {job.state[0]});
  const bool materialized = channel_->config().transport != "memory";
  const std::size_t copies = materialized ? 1 : 2;
  const float lambda = static_cast<float>(lambda_);
  const ClientDataPtr data = ctx_.data->client_ptr(k);
  Model model = ctx_.spec.build();
  model.load_state((*store_.read(k))[0]);

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
  result.update.state = materialized ? with_dual_state(trained) : trained;
  result.update.num_examples = data->train_labels.size();
  result.payload_copies = copies;
  if (detached) result.state.push_back(trained);
  store_.put(k, {std::move(trained)});
  return result;
}

std::vector<StateDict> FedMtl::client_state_sections(std::size_t k) {
  return {(*store_.read(k))[0]};
}

double FedMtl::client_test_accuracy(std::size_t k) {
  Model model = ctx_.spec.build();
  model.load_state((*store_.peek(k))[0]);
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}

std::optional<std::uint64_t> FedMtl::evaluation_key(std::size_t k) {
  return store_.version(k);
}

std::vector<StateDict> FedMtl::checkpoint_state() {
  std::vector<StateDict> sections;
  sections.reserve(store_.size());
  for (std::size_t k = 0; k < store_.size(); ++k) {
    sections.push_back((*store_.peek(k))[0]);
  }
  return sections;
}

void FedMtl::restore_checkpoint_state(std::vector<StateDict> sections) {
  SUBFEDAVG_CHECK(sections.size() == store_.size(),
                  "MTL checkpoint has " << sections.size() << " sections, federation has "
                                        << store_.size() << " clients");
  store_.reset();
  for (std::size_t k = 0; k < sections.size(); ++k) {
    store_.put(k, {std::move(sections[k])});
  }
  recompute_mean();
}

}  // namespace subfed
