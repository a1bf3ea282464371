#include "util/wire.h"

#include <cstdio>
#include <filesystem>

#include "util/check.h"

namespace subfed::wire {

void Reader::finish() const {
  SUBFEDAVG_CHECK(pos_ == bytes_.size(), "trailing bytes in " << format_);
}

void Reader::truncated() const { SUBFEDAVG_CHECK(false, "truncated " << format_); }

Bytes read_file(const std::string& path) {
  std::error_code error;
  SUBFEDAVG_CHECK(std::filesystem::is_regular_file(path, error),
                  "not a regular file: " << path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SUBFEDAVG_CHECK(f != nullptr, "cannot open " << path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    SUBFEDAVG_CHECK(false, "cannot size " << path);
  }
  Bytes bytes(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  SUBFEDAVG_CHECK(read == bytes.size(), "short read: " << path);
  return bytes;
}

void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  SUBFEDAVG_CHECK(f != nullptr, "cannot open " << tmp << " for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    std::remove(tmp.c_str());
    SUBFEDAVG_CHECK(false, "short write: " << tmp);
  }
  SUBFEDAVG_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "cannot publish " << tmp << " -> " << path);
}

}  // namespace subfed::wire
