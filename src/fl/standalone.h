// Standalone benchmark: every client trains only on its own local data —
// no federation, no communication. The paper's lower (sometimes upper!)
// reference under pathological non-IID (§4.2, Remark-2).
#pragma once

#include "fl/algorithm.h"
#include "fl/client_state.h"

namespace subfed {

class Standalone final : public FederatedAlgorithm {
 public:
  explicit Standalone(FlContext ctx);

  std::string name() const override { return "Standalone"; }
  void run_round(std::size_t round, std::span<const std::size_t> sampled) override;
  /// Trains the client's local model (installed from job.state on remote
  /// exchanges); uploads nothing.
  ClientResult run_client(std::size_t round, const ClientJob& job, const StateDict& received,
                          bool detached) override;
  /// One section: the client's local model.
  std::vector<StateDict> client_state_sections(std::size_t k) override;
  double client_test_accuracy(std::size_t k) override;

  /// Checkpoint layout: one section per client (its local model).
  std::vector<StateDict> checkpoint_state() override;
  void restore_checkpoint_state(std::vector<StateDict> sections) override;

 private:
  /// The store version of client k: its accuracy reads only its local model.
  std::optional<std::uint64_t> evaluation_key(std::size_t k) override;

  /// Each client's persistent local model: one section per client, untouched
  /// clients sharing the initial state, cold ones spilled past client_cache.
  ClientStateStore store_;
};

}  // namespace subfed
