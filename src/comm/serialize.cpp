#include "comm/serialize.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "comm/quantize.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace subfed {

namespace {

constexpr std::uint32_t kUpdateMagic = 0x53464156;  // "SFAV"
constexpr std::uint32_t kQuantMagic = 0x53465150;   // "SFQP"

/// Least bytes an entry takes: name length, rank and coverage flag.
constexpr std::size_t kMinEntryBytes = 4 + 4 + 1;

// The loops below read and write tensors through raw pointers: Tensor's
// operator[] is a checked out-of-line call, and a byte store through `out`
// may alias any object whose address is in memory.

/// Calls `fn(i)` for every position of an `n`-element tensor that `keep`
/// (nullable: every position) marks nonzero, in order.
template <typename Fn>
void for_kept(std::size_t n, const float* keep, Fn&& fn) {
  if (keep == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (keep[i] != 0.0f) fn(i);
  }
}

/// Same, over a packed keep bitmap (nullable: every position).
template <typename Fn>
void for_kept(std::size_t n, const std::uint8_t* bitmap, Fn&& fn) {
  if (bitmap == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if ((bitmap[i >> 3] >> (i & 7)) & 1) fn(i);
  }
}

/// Bytes one kept value takes at `codec`'s precision.
std::size_t value_bytes(QuantCodec codec) {
  return codec == QuantCodec::kNone ? 4 : codec == QuantCodec::kFp16 ? 2 : 1;
}

/// Writes an `n`-element keep mask as a packed bitmap and returns how many
/// positions it keeps.
std::size_t put_bitmap(wire::Bytes& out, const float* keep, std::size_t n) {
  std::uint8_t* bits = wire::extend(out, (n + 7) / 8);  // zeroed
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (keep[i] != 0.0f) {
      bits[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
      ++kept;
    }
  }
  return kept;
}

/// Writes the `kept` values of `src` that `keep` keeps, at the codec's
/// precision. int8 is per-tensor affine over the written values, scale first.
void put_values(wire::Bytes& out, const float* src, std::size_t n, const float* keep,
                std::size_t kept, QuantCodec codec) {
  switch (codec) {
    case QuantCodec::kNone: {
      std::uint8_t* p = wire::extend(out, 4 * kept);
      for_kept(n, keep, [&](std::size_t i) {
        wire::store(p, std::bit_cast<std::uint32_t>(src[i]));
        p += 4;
      });
      return;
    }
    case QuantCodec::kFp16: {
      std::uint8_t* p = wire::extend(out, 2 * kept);
      for_kept(n, keep, [&](std::size_t i) {
        wire::store(p, fp32_to_fp16(src[i]));
        p += 2;
      });
      return;
    }
    case QuantCodec::kInt8: {
      float peak = 0.0f;
      for_kept(n, keep, [&](std::size_t i) { peak = std::max(peak, std::fabs(src[i])); });
      const float scale = peak > 0.0f ? peak / 127.0f : 1.0f;
      wire::put_f32(out, scale);
      std::uint8_t* p = wire::extend(out, kept);
      for_kept(n, keep, [&](std::size_t i) {
        const float q = std::clamp(std::round(src[i] / scale), -127.0f, 127.0f);
        *p++ = static_cast<std::uint8_t>(static_cast<std::int8_t>(q));
      });
      return;
    }
  }
}

/// At least the bytes encode_payload writes for `state`, so a payload's
/// buffer is allocated once.
std::size_t size_bound(const StateDict& state, QuantCodec codec) {
  std::size_t bound = 4 + 1 + 4;  // magic, quant byte, entry count
  for (const auto& [name, tensor] : state) {
    bound += 4 + name.size() + 4 + 4 * tensor.shape().rank() + 1 + 4 +
             (tensor.numel() + 7) / 8 + value_bytes(codec) * tensor.numel();
  }
  return bound;
}

/// Entry count, then each entry: name, rank, dims, coverage flag, the keep
/// bitmap when covered, then the kept values.
void put_entries(wire::Bytes& out, const StateDict& state, const ModelMask* mask,
                 QuantCodec codec) {
  wire::put_u32(out, static_cast<std::uint32_t>(state.size()));
  for (const auto& [name, tensor] : state) {
    wire::put_string(out, name);
    wire::put_u32(out, static_cast<std::uint32_t>(tensor.shape().rank()));
    for (const std::size_t d : tensor.shape().dims()) {
      wire::put_u32(out, static_cast<std::uint32_t>(d));
    }
    const Tensor* m = mask != nullptr ? mask->find(name) : nullptr;
    wire::put_u8(out, m != nullptr ? 1 : 0);
    const float* keep = nullptr;
    std::size_t kept = tensor.numel();
    if (m != nullptr) {
      SUBFEDAVG_CHECK(m->shape() == tensor.shape(), "mask shape for " << name);
      keep = m->data();
      kept = put_bitmap(out, keep, m->numel());
    }
    put_values(out, tensor.data(), tensor.numel(), keep, kept, codec);
  }
}

/// Reads the `kept` values put_values wrote into the positions of `dst` that
/// `bitmap` keeps.
void read_values(wire::Reader& reader, float* dst, std::size_t n, const std::uint8_t* bitmap,
                 std::size_t kept, QuantCodec codec) {
  switch (codec) {
    case QuantCodec::kNone: {
      const std::uint8_t* p = reader.bytes(4 * kept).data();
      for_kept(n, bitmap, [&](std::size_t i) {
        dst[i] = std::bit_cast<float>(wire::load<std::uint32_t>(p));
        p += 4;
      });
      return;
    }
    case QuantCodec::kFp16: {
      const std::uint8_t* p = reader.bytes(2 * kept).data();
      for_kept(n, bitmap, [&](std::size_t i) {
        dst[i] = fp16_to_fp32(wire::load<std::uint16_t>(p));
        p += 2;
      });
      return;
    }
    case QuantCodec::kInt8: {
      const float scale = reader.f32();
      const std::uint8_t* p = reader.bytes(kept).data();
      for_kept(n, bitmap, [&](std::size_t i) {
        dst[i] = static_cast<float>(static_cast<std::int8_t>(*p++)) * scale;
      });
      return;
    }
  }
}

/// Inverse of put_entries. Claimed counts and shapes are checked against the
/// bytes left before anything is allocated for them.
StateDict read_entries(wire::Reader& reader, QuantCodec codec, ModelMask* mask_out) {
  const std::uint32_t entries = reader.count(kMinEntryBytes);
  StateDict state;
  for (std::uint32_t e = 0; e < entries; ++e) {
    std::string name = reader.string();
    std::vector<std::size_t> dims(reader.count(4));
    for (std::size_t& d : dims) d = reader.u32();
    check_wire_shape(dims, reader.remaining());
    Tensor tensor{Shape(dims)};
    const std::size_t n = tensor.numel();

    const bool masked = reader.u8() != 0;
    const std::uint8_t* bitmap = nullptr;
    std::size_t kept = n;
    if (masked) {
      const std::span<const std::uint8_t> bits = reader.bytes((n + 7) / 8);
      bitmap = bits.data();
      kept = 0;
      for (const std::uint8_t byte : bits) kept += static_cast<std::size_t>(std::popcount(byte));
      if (n % 8 != 0) {  // bits past the last element are not positions
        const unsigned past = bits.back() >> (n % 8);
        kept -= static_cast<std::size_t>(std::popcount(past));
      }
    }
    read_values(reader, tensor.data(), n, bitmap, kept, codec);
    if (masked && mask_out != nullptr) {
      Tensor keep{tensor.shape()};
      float* bits = keep.data();
      for_kept(n, bitmap, [&](std::size_t i) { bits[i] = 1.0f; });
      mask_out->set(name, std::move(keep));
    }
    state.add(std::move(name), std::move(tensor));
  }
  return state;
}

/// Appends encode_update's bytes.
void put_update(wire::Bytes& out, const StateDict& state, const ModelMask* mask) {
  wire::put_u32(out, kUpdateMagic);
  put_entries(out, state, mask, QuantCodec::kNone);
}

}  // namespace

QuantCodec parse_quant_codec(const std::string& name) {
  if (name == "none") return QuantCodec::kNone;
  if (name == "fp16") return QuantCodec::kFp16;
  if (name == "int8") return QuantCodec::kInt8;
  SUBFEDAVG_CHECK(false, "unknown quantize codec '" << name << "' (none | fp16 | int8)");
  return QuantCodec::kNone;
}

std::string quant_codec_name(QuantCodec codec) {
  switch (codec) {
    case QuantCodec::kNone: return "none";
    case QuantCodec::kFp16: return "fp16";
    case QuantCodec::kInt8: return "int8";
  }
  return "none";
}

std::vector<std::uint8_t> encode_update(const StateDict& state, const ModelMask* mask) {
  wire::Bytes out;
  out.reserve(size_bound(state, QuantCodec::kNone));
  put_update(out, state, mask);
  return out;
}

StateDict decode_update(std::span<const std::uint8_t> bytes, ModelMask* mask_out) {
  wire::Reader reader(bytes, "update");
  SUBFEDAVG_CHECK(reader.u32() == kUpdateMagic, "bad update magic");
  StateDict state = read_entries(reader, QuantCodec::kNone, mask_out);
  reader.finish();
  return state;
}

std::vector<std::uint8_t> encode_payload(const StateDict& state, const ModelMask* mask,
                                         QuantCodec quantize) {
  const telemetry::StopWatch watch;
  wire::Bytes out;
  out.reserve(size_bound(state, quantize));
  if (quantize == QuantCodec::kNone) {
    put_update(out, state, mask);
  } else {
    wire::put_u32(out, kQuantMagic);
    wire::put_u8(out, static_cast<std::uint8_t>(quantize));
    put_entries(out, state, mask, quantize);
  }
  if (watch.armed()) {
    static telemetry::Counter& encodes = telemetry::counter("codec.encodes");
    static telemetry::Counter& bytes = telemetry::counter("codec.encoded_bytes");
    static telemetry::Timer& time = telemetry::timer("codec.encode_seconds");
    encodes.add();
    bytes.add(out.size());
    time.add_seconds(watch.seconds());
  }
  return out;
}

StateDict decode_payload(std::span<const std::uint8_t> bytes, ModelMask* mask_out) {
  const telemetry::StopWatch watch;
  SUBFEDAVG_CHECK(bytes.size() >= 4, "truncated payload");
  StateDict state;
  if (wire::load<std::uint32_t>(bytes.data()) != kQuantMagic) {
    state = decode_update(bytes, mask_out);
  } else {
    wire::Reader reader(bytes.subspan(4), "payload");
    const std::uint8_t tag = reader.u8();
    SUBFEDAVG_CHECK(tag == static_cast<std::uint8_t>(QuantCodec::kFp16) ||
                        tag == static_cast<std::uint8_t>(QuantCodec::kInt8),
                    "bad payload quant tag " << int{tag});
    state = read_entries(reader, static_cast<QuantCodec>(tag), mask_out);
    reader.finish();
  }
  if (watch.armed()) {
    static telemetry::Counter& decodes = telemetry::counter("codec.decodes");
    static telemetry::Counter& decoded = telemetry::counter("codec.decoded_bytes");
    static telemetry::Timer& time = telemetry::timer("codec.decode_seconds");
    decodes.add();
    decoded.add(bytes.size());
    time.add_seconds(watch.seconds());
  }
  return state;
}

void put_sections(std::vector<std::uint8_t>& out, const std::vector<StateDict>& sections) {
  wire::put_u32(out, static_cast<std::uint32_t>(sections.size()));
  for (const StateDict& section : sections) {
    const std::size_t at = out.size();
    wire::put_u32(out, 0);  // the blob's length, known once it is written
    put_update(out, section, nullptr);
    wire::store(out.data() + at, static_cast<std::uint32_t>(out.size() - at - 4));
  }
}

std::vector<StateDict> read_sections(wire::Reader& reader) {
  const std::uint32_t count = reader.count(4);  // each carries its 4-byte length
  std::vector<StateDict> sections;
  sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) sections.push_back(decode_update(reader.blob()));
  return sections;
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
    const float* keep = m->data();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < m->numel(); ++i) kept += (keep[i] != 0.0f);
    bytes += kept * 4 + (tensor.numel() + 7) / 8;
  }
  return bytes;
}

}  // namespace subfed
