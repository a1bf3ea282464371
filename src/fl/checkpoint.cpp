#include "fl/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <span>
#include <vector>

#include "comm/serialize.h"
#include "util/check.h"

namespace subfed {

namespace {

constexpr std::uint32_t kMagic = 0x53464347;  // "SFCG" (generic sections)
constexpr std::uint32_t kVersion = 1;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_blob(std::vector<std::uint8_t>& out, const std::vector<std::uint8_t>& blob) {
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    SUBFEDAVG_CHECK(pos_ + 4 <= bytes_.size(), "truncated checkpoint");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    SUBFEDAVG_CHECK(pos_ + n <= bytes_.size(), "truncated checkpoint blob");
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void write_file(const std::string& path, const std::vector<std::uint8_t>& out) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  SUBFEDAVG_CHECK(f != nullptr, "cannot open checkpoint for writing: " << path);
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  SUBFEDAVG_CHECK(written == out.size(), "short checkpoint write: " << path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  // fopen happily opens directories on Linux and ftell then reports LONG_MAX;
  // reject non-files up front so bad paths throw instead of allocating wild.
  SUBFEDAVG_CHECK(std::filesystem::is_regular_file(path),
                  "checkpoint is not a regular file: " << path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SUBFEDAVG_CHECK(f != nullptr, "cannot open checkpoint: " << path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    SUBFEDAVG_CHECK(false, "cannot size checkpoint: " << path);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  SUBFEDAVG_CHECK(read == bytes.size(), "short checkpoint read: " << path);
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> encode_state_sections(std::string_view name,
                                                const std::vector<StateDict>& sections) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_blob(out, std::vector<std::uint8_t>(name.begin(), name.end()));
  put_u32(out, static_cast<std::uint32_t>(sections.size()));
  for (const StateDict& section : sections) {
    put_blob(out, encode_update(section, nullptr));
  }
  return out;
}

std::vector<StateDict> decode_state_sections(std::span<const std::uint8_t> bytes,
                                             std::string_view expect_name) {
  Reader reader(bytes);
  SUBFEDAVG_CHECK(reader.u32() == kMagic, "bad checkpoint magic");
  SUBFEDAVG_CHECK(reader.u32() == kVersion, "unsupported checkpoint version");
  const std::vector<std::uint8_t> name_bytes = reader.blob();
  const std::string name(name_bytes.begin(), name_bytes.end());
  SUBFEDAVG_CHECK(name == expect_name, "checkpoint was written by '"
                                           << name << "', loading into '" << expect_name
                                           << "'");
  const std::uint32_t count = reader.u32();
  std::vector<StateDict> sections;
  sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    sections.push_back(decode_update(reader.blob()));
  }
  SUBFEDAVG_CHECK(reader.done(), "trailing bytes in checkpoint");
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
  write_file(path, checkpoint_bytes(algorithm));
}

void load_checkpoint(FederatedAlgorithm& algorithm, const std::string& path) {
  restore_checkpoint_bytes(algorithm, read_file(path));
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
