// Little-endian wire primitives shared by every binary format the repo reads
// or writes: model updates and payloads (comm/serialize.h), channel envelopes
// (comm/channel.h), checkpoint containers (fl/checkpoint.h), session
// checkpoints (serve/session.h), and net/'s frame headers and length
// prefixes.
//
// Writers append to a byte vector. Reader is the one bounds rule for bytes
// from outside the process: every read checks the bytes left, and count()
// refuses an element count the remaining input could not hold, so a decoder
// never allocates more than its input bounds. Failures throw CheckError
// ("truncated <format>").
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace subfed::wire {

using Bytes = std::vector<std::uint8_t>;

// ---------------------------------------------------------------------------
// Fixed-width little-endian stores and loads of unsigned integers

template <typename T>
inline void store(std::uint8_t* at, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

template <typename T>
inline T load(const std::uint8_t* at) noexcept {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(at[i]) << (8 * i));
  }
  return v;
}

// ---------------------------------------------------------------------------
// Writers

/// Grows `out` by `n` bytes and returns where they start.
inline std::uint8_t* extend(Bytes& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

inline void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }
inline void put_u32(Bytes& out, std::uint32_t v) { store(extend(out, 4), v); }
inline void put_u64(Bytes& out, std::uint64_t v) { store(extend(out, 8), v); }
inline void put_f32(Bytes& out, float v) { put_u32(out, std::bit_cast<std::uint32_t>(v)); }
inline void put_f64(Bytes& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

/// A u32 length, then the bytes: what Reader::blob() reads.
inline void put_blob(Bytes& out, std::span<const std::uint8_t> blob) {
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

/// A u32 length, then the characters: what Reader::string() reads.
inline void put_string(Bytes& out, std::string_view text) {
  put_blob(out, {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

// ---------------------------------------------------------------------------
// Reader

/// Bounded cursor over untrusted bytes. `format` names the input in errors.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, const char* format) noexcept
      : bytes_(bytes), format_(format) {}

  /// The next `n` bytes, in place.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (n > remaining()) [[unlikely]] truncated();
    const std::span<const std::uint8_t> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::uint8_t u8() { return bytes(1)[0]; }
  std::uint32_t u32() { return load<std::uint32_t>(bytes(4).data()); }
  std::uint64_t u64() { return load<std::uint64_t>(bytes(8).data()); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// A u32 length, then that many bytes, in place.
  std::span<const std::uint8_t> blob() { return bytes(u32()); }
  /// A u32 length, then that many characters.
  std::string string() {
    const std::span<const std::uint8_t> text = blob();
    return {text.begin(), text.end()};
  }

  /// A u32 element count whose elements take at least `min_bytes` each:
  /// throws unless the bytes left could hold them all, so a caller may
  /// reserve the count before reading the elements.
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / min_bytes) [[unlikely]] truncated();
    return n;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  /// Throws unless every byte was consumed.
  void finish() const;

 private:
  [[noreturn]] void truncated() const;

  std::span<const std::uint8_t> bytes_;
  const char* format_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Files

/// The whole of a regular file. Throws CheckError when `path` is missing, is
/// not a regular file (a directory would otherwise size as LONG_MAX), or
/// cannot be read in full.
Bytes read_file(const std::string& path);

/// Replaces `path` with `bytes` atomically: the bytes go to `path + ".tmp"`,
/// which is closed (its flush checked) and then renamed over `path`. On any
/// failure `path` keeps its previous contents and CheckError is thrown.
void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes);

}  // namespace subfed::wire
