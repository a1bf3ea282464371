// Standalone benchmark: every client trains only on its own local data —
// no federation, no communication. The paper's lower (sometimes upper!)
// reference under pathological non-IID (§4.2, Remark-2).
#pragma once

#include "fl/algorithm.h"

namespace subfed {

class Standalone final : public FederatedAlgorithm {
 public:
  explicit Standalone(FlContext ctx);

  std::string name() const override { return "Standalone"; }
  void run_round(std::size_t round, std::span<const std::size_t> sampled) override;
  /// Trains the client's local model; uploads nothing. Client sections: one,
  /// the local model.
  ClientResult run_client(std::size_t round, const ClientJob& job,
                          const StateDict& received) override;
  double client_test_accuracy(std::size_t k) override;

 private:
  /// The store version of client k: its accuracy reads only its local model.
  std::optional<std::uint64_t> evaluation_key(std::size_t k) override;
};

}  // namespace subfed
