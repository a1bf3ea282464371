// Wire format for model updates.
//
// Clients upload (masked weights, mask); the server downloads aggregated
// state. The encoding is what the paper's cost model charges for:
// 32-bit floats for kept values, 1 bit per mask entry (§4.2.2), plus a
// small self-describing header (entry names/shapes) that the closed-form
// model ignores. encode/decode round-trip exactly, so the byte ledger
// measures real, reconstructible traffic — not an estimate.
//
// Two formats share one entry layout (name, shape, coverage flag, packed keep
// bitmap for covered entries, then the kept values):
//   SFAV — encode_update: magic, entry count, entries with fp32 values.
//   SFQP — encode_payload under fp16/int8: magic, a quant byte, entry count,
//          entries with fp16 values, or int8 values after a per-tensor f32
//          scale.
// The byte order and bounds rule are util/wire.h's.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "pruning/mask.h"
#include "util/wire.h"

namespace subfed {

/// Kept-value precision on the wire.
enum class QuantCodec : std::uint8_t { kNone = 0, kFp16 = 1, kInt8 = 2 };

/// Parses "none" | "fp16" | "int8" (throws CheckError otherwise).
QuantCodec parse_quant_codec(const std::string& name);
std::string quant_codec_name(QuantCodec codec);

/// Serializes `state`. For entries covered by `mask` (nullable), only kept
/// values are written, preceded by a packed bitmap; uncovered entries are
/// written dense.
std::vector<std::uint8_t> encode_update(const StateDict& state, const ModelMask* mask);

/// Inverse of encode_update. Masked-out positions decode as exact zeros.
/// When `mask_out` is non-null, the per-entry keep bitmaps are reconstructed
/// into it (covered entries only) — the wire format carries the mask, so a
/// receiver that never saw the sender's ModelMask recovers it exactly.
StateDict decode_update(std::span<const std::uint8_t> bytes, ModelMask* mask_out = nullptr);

/// Encodes `state` (mask-aware) at the codec's precision. kNone produces
/// exactly encode_update's bytes (bit-exact round-trip); fp16/int8 write SFQP.
std::vector<std::uint8_t> encode_payload(const StateDict& state, const ModelMask* mask,
                                         QuantCodec quantize);

/// Inverse of encode_payload (dispatches on the format magic). Masked-out
/// positions decode as exact zeros; `mask_out`, when non-null, receives the
/// reconstructed keep bitmaps of covered entries.
StateDict decode_payload(std::span<const std::uint8_t> bytes, ModelMask* mask_out = nullptr);

/// Appends a section list: u32 section count, then each section as a
/// u32-length-prefixed encode_update blob. It is the body of the checkpoint
/// container (fl/checkpoint.h) and the resident server's model reply.
void put_sections(std::vector<std::uint8_t>& out, const std::vector<StateDict>& sections);
/// Reads what put_sections wrote.
std::vector<StateDict> read_sections(wire::Reader& reader);

/// Payload bytes the paper's cost model would charge for this update:
/// kept·4 + ⌈covered/8⌉ (mask bitmap) + uncovered·4. No header overhead.
std::size_t payload_bytes(const StateDict& state, const ModelMask* mask);

/// Self-describing header bytes encode_update spends on top of payload_bytes:
/// magic + entry count, and per entry its name, shape, and coverage flag.
/// Invariant (tested): encode_update(s, m).size() ==
///     payload_bytes(s, m) + encoded_header_bytes(s).
std::size_t encoded_header_bytes(const StateDict& state);

/// Throws CheckError unless a tensor of `dims` fits `available` bytes at one
/// bit per element, the least any wire encoding spends on an element. Decoders
/// check each claimed shape with it before allocating, so a corrupt count can
/// never allocate more than the input bounds. Overflow-safe.
void check_wire_shape(std::span<const std::size_t> dims, std::size_t available);

}  // namespace subfed
