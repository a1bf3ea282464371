// Federation checkpointing.
//
// Paper-scale runs (100 clients × 300-500 rounds) take hours on CPU; a
// checkpoint captures everything a federation needs to resume. The container
// (save_checkpoint / load_checkpoint) stores the algorithm's named state
// sections from FederatedAlgorithm::checkpoint_state() in the comm/serialize
// wire format for tensors, so every built-in algorithm can snapshot and
// resume.
//
// CheckpointObserver wires snapshots into the driver's RoundObserver hooks:
// attach one and every N-th round (plus the final state) lands on disk
// without the driver or the algorithm knowing about it. ExperimentSpec's
// `checkpoint_every=` / `checkpoint_path=` fields reach it through
// execute_experiment (fl/experiment.h).
//
// Pruned fractions are re-derived from the masks on load. The communication
// ledger is intentionally NOT persisted — resumed runs account their own
// traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fl/algorithm.h"
#include "fl/driver.h"

namespace subfed {

/// One SFCG (generic sections) container as bytes: magic + version + `name`
/// + the sections. This is the building block under checkpoint_bytes, exposed
/// so per-client state spilled to disk (fl/client_state.h) rides the same
/// versioned format as full checkpoints.
std::vector<std::uint8_t> encode_state_sections(std::string_view name,
                                                const std::vector<StateDict>& sections);

/// Inverse of encode_state_sections. Throws CheckError on magic/version
/// mismatch, a name different from `expect_name`, or corrupt input.
std::vector<StateDict> decode_state_sections(std::span<const std::uint8_t> bytes,
                                             std::string_view expect_name);

/// The generic checkpoint container (magic + version + algorithm name +
/// checkpoint_state sections) as bytes, so callers that embed a federation
/// snapshot inside a larger record (serve/FederationSession) share the file
/// format with save_checkpoint. Throws CheckError when the algorithm does not
/// support checkpointing.
std::vector<std::uint8_t> checkpoint_bytes(FederatedAlgorithm& algorithm);

/// Inverse of checkpoint_bytes into an algorithm built with the SAME
/// data/spec/config. Throws CheckError on algorithm-name mismatch, section
/// mismatch, or corrupt input.
void restore_checkpoint_bytes(FederatedAlgorithm& algorithm,
                              std::span<const std::uint8_t> bytes);

/// Writes `algorithm`'s full state (name + checkpoint_state sections) to
/// `path`, atomically: through `path + ".tmp"` and a rename, so a failed or
/// interrupted write leaves the previous checkpoint intact. Throws CheckError
/// on I/O failure or when the algorithm does not support checkpointing.
void save_checkpoint(FederatedAlgorithm& algorithm, const std::string& path);

/// Restores state saved by save_checkpoint into an algorithm built with the
/// SAME data/spec/config. Throws CheckError on algorithm-name mismatch,
/// section mismatch, or corrupt input.
void load_checkpoint(FederatedAlgorithm& algorithm, const std::string& path);

/// Snapshots the federation every `every` rounds (and once more at run end)
/// via save_checkpoint. Attach to run_federation; the observer does not own
/// the algorithm, which must outlive it.
class CheckpointObserver final : public RoundObserver {
 public:
  /// `every` = 0 disables periodic snapshots (only the final one is written).
  CheckpointObserver(FederatedAlgorithm& algorithm, std::string path, std::size_t every);

  void on_round_end(const RoundEndInfo& info) override;
  void on_run_end(const RunResult& result) override;

  std::size_t snapshots_taken() const noexcept { return snapshots_; }
  const std::string& path() const noexcept { return path_; }

 private:
  FederatedAlgorithm& algorithm_;
  std::string path_;
  std::size_t every_;
  std::size_t snapshots_ = 0;
  std::size_t last_round_ = 0;        ///< last round that actually ran
  std::size_t last_saved_round_ = 0;  ///< last round whose end was snapshotted
};

}  // namespace subfed
