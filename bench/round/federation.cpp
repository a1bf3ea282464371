#include "federation.h"

#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <memory>

#include "fl/subfedavg.h"

namespace subfed::bench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr std::size_t kMaxSetupReps = 101;
constexpr double kMinSetupSeconds = 0.5;

/// Counts each client's rounds and forwards the cohort to the hooks. Runs
/// inside the timed round, in timed and traced runs alike.
class LoopObserver final : public RoundObserver {
 public:
  LoopObserver(std::size_t clients, RoundHooks* hooks)
      : participation(clients, 0), hooks_(hooks) {}

  void on_round_begin(std::size_t /*round*/, std::span<const std::size_t> sampled) override {
    for (const std::size_t k : sampled) ++participation[k];
    if (hooks_ != nullptr) hooks_->on_cohort(sampled);
  }

  std::vector<std::size_t> participation;

 private:
  RoundHooks* hooks_;
};

}  // namespace

ExperimentSpec workload_spec(const Workload& workload, std::uint64_t seed,
                             const std::string& telemetry) {
  ExperimentSpec spec;
  spec.apply_kv(workload.spec);
  spec.seed = seed;
  spec.rounds = kHorizon;
  spec.telemetry = telemetry;
  return spec;
}

FederationRun run_federation(const ExperimentSpec& spec, const RunOptions& options,
                             RoundHooks* hooks) {
  FederationRun run;
  run.horizon_rounds = spec.rounds;

  // Setup: one discarded warm-up construction, then timed ones; the last
  // timed construction is the session that runs.
  std::unique_ptr<FederationSession> session;
  Clock::time_point federation_start = Clock::now();
  if (options.setup_reps == 0) {
    session = FederationSession::from_spec(spec);
  } else {
    FederationSession::from_spec(spec).reset();
    double total = 0.0;
    while (run.setup_s.size() < options.setup_reps ||
           (total < kMinSetupSeconds && run.setup_s.size() < kMaxSetupReps)) {
      session.reset();
      federation_start = Clock::now();
      session = FederationSession::from_spec(spec);
      run.setup_s.push_back(since(federation_start));
      total += run.setup_s.back();
    }
  }

  FederatedAlgorithm& algorithm = session->algorithm();
  const std::size_t clients = algorithm.num_clients();
  LoopObserver observer(clients, hooks);
  const Clock::time_point loop_start = Clock::now();
  bool finished = false;
  try {
    for (std::size_t round = 1; !finished || since(loop_start) < options.seconds; ++round) {
      if (hooks != nullptr) hooks->before_round(*session, round);
      ++run.attempted;
      Clock::time_point start = Clock::now();
      if (!session->advance_round(&observer)) {
        ++run.failed;
        run.failures.push_back("round " + std::to_string(round) + " skipped");
        if (round == run.horizon_rounds) break;  // the horizon's outputs are lost
        continue;
      }
      const double round_wall = since(start);
      run.round_s.push_back(round_wall);
      if (hooks != nullptr) hooks->after_round(*session, round, round_wall);

      if ((spec.eval_every > 0 && round % spec.eval_every == 0) ||
          round == run.horizon_rounds) {
        ++run.attempted;
        start = Clock::now();
        session->evaluate();
        run.eval_s.push_back(since(start));
        if (hooks != nullptr) hooks->after_eval(*session);
      }
      if (round != run.horizon_rounds) continue;

      ++run.attempted;
      run.result = session->finish();
      run.federation_s = since(federation_start);
      run.horizon_bytes = run.result.up_bytes + run.result.down_bytes;
      std::size_t visited = 0;
      for (const std::size_t n : observer.participation) visited += n > 0 ? 1 : 0;
      if (const auto* sub = dynamic_cast<const SubFedAvg*>(&algorithm);
          sub != nullptr && visited > 0) {
        // Never-sampled clients sit at 0, so the mean over visited clients
        // is the population mean rescaled.
        const double scale = static_cast<double>(clients) / static_cast<double>(visited);
        run.weight_pruned = sub->average_unstructured_pruned() * scale;
        run.channel_pruned = sub->average_structured_pruned() * scale;
      }
      finished = true;
    }
  } catch (const std::exception& e) {
    ++run.failed;
    run.failures.push_back(e.what());
  }

  // Work done, outside the timed loop (client_ptr may synthesize lazy data).
  const double epochs = static_cast<double>(spec.epochs);
  const FederatedData& data = *algorithm.context().data;
  for (std::size_t k = 0; k < clients; ++k) {
    if (observer.participation[k] == 0) continue;
    run.train_examples += static_cast<double>(observer.participation[k]) * epochs *
                          static_cast<double>(data.client_ptr(k)->train_labels.size());
  }
  return run;
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace subfed::bench
