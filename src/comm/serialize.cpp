#include "comm/serialize.h"

#include <cstring>

#include "util/check.h"

namespace subfed {

namespace {

constexpr std::uint32_t kMagic = 0x53464156;  // "SFAV"

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void put_f32(std::vector<std::uint8_t>& out, float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, 4);
  put_u32(out, bits);
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    SUBFEDAVG_CHECK(pos_ + 4 <= bytes_.size(), "truncated update");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }

  std::uint8_t u8() {
    SUBFEDAVG_CHECK(pos_ < bytes_.size(), "truncated update");
    return bytes_[pos_++];
  }

  std::string str(std::size_t n) {
    SUBFEDAVG_CHECK(pos_ + n <= bytes_.size(), "truncated update");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> encode_update(const StateDict& state, const ModelMask* mask) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u32(out, static_cast<std::uint32_t>(state.size()));

  for (const auto& [name, tensor] : state) {
    put_u32(out, static_cast<std::uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    put_u32(out, static_cast<std::uint32_t>(tensor.shape().rank()));
    for (const std::size_t d : tensor.shape().dims()) {
      put_u32(out, static_cast<std::uint32_t>(d));
    }

    const Tensor* m = mask != nullptr ? mask->find(name) : nullptr;
    out.push_back(m != nullptr ? 1 : 0);
    if (m == nullptr) {
      for (std::size_t i = 0; i < tensor.numel(); ++i) put_f32(out, tensor[i]);
      continue;
    }
    SUBFEDAVG_CHECK(m->shape() == tensor.shape(), "mask shape for " << name);
    // Packed bitmap, then kept values only.
    std::uint8_t byte = 0;
    int bit = 0;
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      if ((*m)[i] != 0.0f) byte |= static_cast<std::uint8_t>(1 << bit);
      if (++bit == 8) {
        out.push_back(byte);
        byte = 0;
        bit = 0;
      }
    }
    if (bit != 0) out.push_back(byte);
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      if ((*m)[i] != 0.0f) put_f32(out, tensor[i]);
    }
  }
  return out;
}

StateDict decode_update(std::span<const std::uint8_t> bytes, ModelMask* mask_out) {
  Reader reader(bytes);
  SUBFEDAVG_CHECK(reader.u32() == kMagic, "bad update magic");
  const std::uint32_t entries = reader.u32();

  StateDict state;
  for (std::uint32_t e = 0; e < entries; ++e) {
    const std::uint32_t name_len = reader.u32();
    std::string name = reader.str(name_len);
    const std::uint32_t rank = reader.u32();
    SUBFEDAVG_CHECK(rank <= reader.remaining() / 4, "truncated update");
    std::vector<std::size_t> dims(rank);
    for (auto& d : dims) d = reader.u32();
    check_wire_shape(dims, reader.remaining());
    Tensor tensor{Shape(dims)};

    const bool masked = reader.u8() != 0;
    if (!masked) {
      for (std::size_t i = 0; i < tensor.numel(); ++i) tensor[i] = reader.f32();
    } else {
      std::vector<bool> keep(tensor.numel());
      for (std::size_t i = 0; i < tensor.numel(); i += 8) {
        const std::uint8_t byte = reader.u8();
        for (int b = 0; b < 8 && i + b < tensor.numel(); ++b) {
          keep[i + b] = (byte >> b) & 1;
        }
      }
      for (std::size_t i = 0; i < tensor.numel(); ++i) {
        if (keep[i]) tensor[i] = reader.f32();
      }
      if (mask_out != nullptr) {
        Tensor bits{tensor.shape()};
        for (std::size_t i = 0; i < bits.numel(); ++i) bits[i] = keep[i] ? 1.0f : 0.0f;
        mask_out->set(name, std::move(bits));
      }
    }
    state.add(std::move(name), std::move(tensor));
  }
  SUBFEDAVG_CHECK(reader.done(), "trailing bytes in update");
  return state;
}

std::size_t encoded_header_bytes(const StateDict& state) {
  std::size_t bytes = 8;  // magic + entry count
  for (const auto& [name, tensor] : state) {
    bytes += 4 + name.size();                       // name length + name
    bytes += 4 + 4 * tensor.shape().rank();         // rank + dims
    bytes += 1;                                     // coverage flag
  }
  return bytes;
}

void check_wire_shape(std::span<const std::size_t> dims, std::size_t available) {
  const std::size_t limit = 8 * available;
  std::size_t numel = 1;
  for (const std::size_t d : dims) {
    SUBFEDAVG_CHECK(d == 0 || numel <= limit / d,
                    "tensor shape claims more elements than the " << available
                                                                  << " bytes left");
    numel *= d;
  }
}

std::size_t payload_bytes(const StateDict& state, const ModelMask* mask) {
  std::size_t bytes = 0;
  for (const auto& [name, tensor] : state) {
    const Tensor* m = mask != nullptr ? mask->find(name) : nullptr;
    if (m == nullptr) {
      bytes += tensor.numel() * 4;
      continue;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < m->numel(); ++i) kept += ((*m)[i] != 0.0f);
    bytes += kept * 4 + (tensor.numel() + 7) / 8;
  }
  return bytes;
}

}  // namespace subfed
