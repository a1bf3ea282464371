#include "fl/algorithm.h"

#include "telemetry/telemetry.h"
#include "tensor/backend.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace subfed {

FederatedAlgorithm::FederatedAlgorithm(FlContext ctx) : ctx_(ctx) {
  SUBFEDAVG_CHECK(ctx_.data != nullptr, "FlContext.data is null");
  // The context's compute knobs take effect here, so callers that build an
  // FlContext directly (benches, tests) get them honored too: an explicit
  // ctx.backend wins over whatever the model spec carried, and a nonzero
  // math_threads caps the process-wide GEMM fan-out for this algorithm's
  // lifetime (the destructor restores the previous cap, so one run's
  // override never leaks over a SUBFEDAVG_MATH_THREADS setting).
  if (ctx_.backend != "auto") ctx_.spec.backend = ctx_.backend;
  if (ctx_.math_threads > 0) {
    restore_math_threads_ = math_threads();
    set_math_threads(ctx_.math_threads);
  }
  Rng init_rng = Rng(ctx_.seed).split("global-init");
  Model initial = ctx_.spec.build_init(init_rng);
  initial_state_ = initial.state();

  SUBFEDAVG_CHECK(ctx_.codec == "sparse" || ctx_.codec == "delta",
                  "unknown codec '" << ctx_.codec << "' (sparse | delta)");
  SUBFEDAVG_CHECK(ctx_.aggregation == "sync" || ctx_.aggregation == "buffered",
                  "unknown aggregation '" << ctx_.aggregation << "' (sync | buffered)");
  ChannelConfig channel_config;
  channel_config.transport = ctx_.transport;
  channel_config.delta = ctx_.codec == "delta";
  channel_config.quantize = parse_quant_codec(ctx_.quantize);
  channel_config.workers = ctx_.channel_workers;
  channel_config.corrupt_fraction = ctx_.corrupt_fraction;
  channel_config.corrupt_noise = ctx_.corrupt_noise;
  channel_config.seed = ctx_.seed;
  channel_config.buffered = ctx_.aggregation == "buffered";
  channel_config.buffer_k = ctx_.buffer_k;
  channel_config.staleness_decay = ctx_.staleness_decay;
  channel_config.max_staleness = ctx_.max_staleness;
  channel_config.listen = ctx_.listen;
  channel_config.rpc_timeout_ms = static_cast<int>(ctx_.rpc_timeout_ms);
  channel_config.remote_setup.assign(ctx_.remote_setup.begin(), ctx_.remote_setup.end());
  channel_ = std::make_unique<Channel>(std::move(channel_config), &ledger_);

  fleet_spread_ = ctx_.link_spread;
  fleet_seed_ = ctx_.seed;
  fleet_ = std::make_unique<LinkFleet>(num_clients(), LinkModel{}, fleet_spread_,
                                       Rng(fleet_seed_).split("link-fleet"));
  channel_->set_link_fleet(fleet_.get());
}

void FederatedAlgorithm::apply_link_spread(double spread, std::uint64_t seed) {
  SUBFEDAVG_CHECK(spread >= 1.0, "link spread " << spread);
  if (spread == fleet_spread_ && seed == fleet_seed_) return;
  fleet_spread_ = spread;
  fleet_seed_ = seed;
  fleet_ = std::make_unique<LinkFleet>(num_clients(), LinkModel{}, fleet_spread_,
                                       Rng(fleet_seed_).split("link-fleet"));
  channel_->set_link_fleet(fleet_.get());
}

FederatedAlgorithm::~FederatedAlgorithm() {
  if (restore_math_threads_) set_math_threads(*restore_math_threads_);
}

Rng FederatedAlgorithm::client_round_rng(std::size_t client, std::size_t round) const {
  return Rng(ctx_.seed).split("client-round", client * 1000003ULL + round);
}

std::optional<std::uint64_t> FederatedAlgorithm::evaluation_key(std::size_t /*k*/) {
  return std::nullopt;
}

std::vector<double> FederatedAlgorithm::all_test_accuracies() {
  const std::size_t n = num_clients();
  if (eval_keys_.size() != n) {
    eval_accuracies_.assign(n, 0.0);
    eval_keys_.assign(n, std::nullopt);
  }
  std::vector<std::size_t> stale;
  std::vector<std::optional<std::uint64_t>> stale_keys;
  for (std::size_t k = 0; k < n; ++k) {
    const std::optional<std::uint64_t> key = evaluation_key(k);
    if (key && key == eval_keys_[k]) continue;
    stale.push_back(k);
    stale_keys.push_back(key);
  }
  ThreadPool::global().parallel_for(stale.size(), [&](std::size_t i) {
    eval_accuracies_[stale[i]] = client_test_accuracy(stale[i]);
  });
  for (std::size_t i = 0; i < stale.size(); ++i) eval_keys_[stale[i]] = stale_keys[i];

  static telemetry::Counter& evaluated = telemetry::counter("eval.clients_evaluated");
  static telemetry::Counter& reused = telemetry::counter("eval.clients_reused");
  evaluated.add(stale.size());
  reused.add(n - stale.size());
  return eval_accuracies_;
}

ClientResult FederatedAlgorithm::run_client(std::size_t /*round*/, const ClientJob& /*job*/,
                                            const StateDict& /*received*/, bool /*detached*/) {
  SUBFEDAVG_CHECK(false, name() << " does not support remote execution");
  return {};
}

std::vector<StateDict> FederatedAlgorithm::client_state_sections(std::size_t /*k*/) {
  return {};
}

std::vector<Exchange> FederatedAlgorithm::exchange_round(std::size_t round,
                                                         std::span<ClientJob> jobs) {
  if (channel_->ships_client_state()) {
    for (ClientJob& job : jobs) job.state = client_state_sections(job.client);
  }
  return channel_->run_round(
      round, jobs, [&](const ClientJob& job, const StateDict& received, bool detached) {
        return run_client(round, job, received, detached);
      });
}

std::vector<std::uint8_t> FederatedAlgorithm::serve_remote(
    std::span<const std::uint8_t> request_bytes) {
  return channel_->serve_remote_exchange(
      request_bytes, [&](std::size_t round, const ClientJob& job, const StateDict& received) {
        return run_client(round, job, received, /*detached=*/true);
      });
}

std::vector<StateDict> FederatedAlgorithm::checkpoint_state() {
  SUBFEDAVG_CHECK(false, name() << " does not support checkpointing");
  return {};
}

void FederatedAlgorithm::restore_checkpoint_state(std::vector<StateDict> /*sections*/) {
  SUBFEDAVG_CHECK(false, name() << " does not support checkpointing");
}

StateDict FederatedAlgorithm::global_model() {
  std::vector<StateDict> sections = checkpoint_state();
  SUBFEDAVG_CHECK(!sections.empty(), name() << " has no checkpointable state to serve");
  return std::move(sections.front());
}

double FederatedAlgorithm::average_test_accuracy() {
  const std::vector<double> acc = all_test_accuracies();
  double sum = 0.0;
  for (const double a : acc) sum += a;
  return acc.empty() ? 0.0 : sum / static_cast<double>(acc.size());
}

}  // namespace subfed
