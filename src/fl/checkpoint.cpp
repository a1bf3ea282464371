#include "fl/checkpoint.h"

#include <span>
#include <vector>

#include "comm/serialize.h"
#include "util/check.h"
#include "util/wire.h"

namespace subfed {

namespace {

constexpr std::uint32_t kMagic = 0x53464347;  // "SFCG" (generic sections)
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::vector<std::uint8_t> encode_state_sections(std::string_view name,
                                                const std::vector<StateDict>& sections) {
  wire::Bytes out;
  wire::put_u32(out, kMagic);
  wire::put_u32(out, kVersion);
  wire::put_string(out, name);
  put_sections(out, sections);
  return out;
}

std::vector<StateDict> decode_state_sections(std::span<const std::uint8_t> bytes,
                                             std::string_view expect_name) {
  wire::Reader reader(bytes, "checkpoint");
  SUBFEDAVG_CHECK(reader.u32() == kMagic, "bad checkpoint magic");
  SUBFEDAVG_CHECK(reader.u32() == kVersion, "unsupported checkpoint version");
  const std::string name = reader.string();
  SUBFEDAVG_CHECK(name == expect_name, "checkpoint was written by '"
                                           << name << "', loading into '" << expect_name
                                           << "'");
  std::vector<StateDict> sections = read_sections(reader);
  reader.finish();
  return sections;
}

std::vector<std::uint8_t> checkpoint_bytes(FederatedAlgorithm& algorithm) {
  return encode_state_sections(algorithm.name(), algorithm.checkpoint_state());
}

void restore_checkpoint_bytes(FederatedAlgorithm& algorithm,
                              std::span<const std::uint8_t> bytes) {
  algorithm.restore_checkpoint_state(decode_state_sections(bytes, algorithm.name()));
}

void save_checkpoint(FederatedAlgorithm& algorithm, const std::string& path) {
  wire::write_file_atomic(path, checkpoint_bytes(algorithm));
}

void load_checkpoint(FederatedAlgorithm& algorithm, const std::string& path) {
  restore_checkpoint_bytes(algorithm, wire::read_file(path));
}

CheckpointObserver::CheckpointObserver(FederatedAlgorithm& algorithm, std::string path,
                                       std::size_t every)
    : algorithm_(algorithm), path_(std::move(path)), every_(every) {
  SUBFEDAVG_CHECK(!path_.empty(), "checkpoint path is empty");
}

void CheckpointObserver::on_round_end(const RoundEndInfo& info) {
  last_round_ = info.round;
  if (every_ == 0 || info.round % every_ != 0) return;
  save_checkpoint(algorithm_, path_);
  last_saved_round_ = info.round;
  ++snapshots_;
}

void CheckpointObserver::on_run_end(const RunResult& /*result*/) {
  // Skip the final save when the last executed round already snapshotted —
  // at paper scale rewriting an identical multi-hundred-MB state is pure I/O.
  if (snapshots_ > 0 && last_saved_round_ == last_round_) return;
  save_checkpoint(algorithm_, path_);
  ++snapshots_;
}

}  // namespace subfed
