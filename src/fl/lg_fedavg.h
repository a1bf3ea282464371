// LG-FedAvg baseline (Liang et al. 2020, "Think Locally, Act Globally").
//
// Each client keeps its convolutional representation layers LOCAL
// (personalized) and only the fully-connected head is federated: clients
// upload/download the FC entries, the server FedAvg-averages them. This is
// the strongest personalization baseline in the paper's Table 1.
#pragma once

#include "core/aggregate.h"
#include "fl/algorithm.h"

namespace subfed {

class LgFedAvg final : public FederatedAlgorithm {
 public:
  explicit LgFedAvg(FlContext ctx);

  std::string name() const override { return "LG-FedAvg"; }
  void run_round(std::size_t round, std::span<const std::size_t> sampled) override;
  /// Merges the received head into the client's personal state, trains,
  /// uploads the new head. Client sections: one, the full personal state.
  ClientResult run_client(std::size_t round, const ClientJob& job,
                          const StateDict& received) override;
  double client_test_accuracy(std::size_t k) override;

  /// Checkpoint layout: one section per client plus the global FC head.
  std::vector<StateDict> checkpoint_state() override;
  void restore_checkpoint_state(std::vector<StateDict> sections) override;

  /// Whether a state entry belongs to the globally shared FC head.
  static bool is_global_entry(const std::string& name);

 private:
  /// Overwrites the FC entries of `state` with the current global head.
  void merge_head(StateDict& state) const;

  StateDict global_head_;  ///< FC entries only
};

}  // namespace subfed
