// Wire format for model updates.
//
// Clients upload (masked weights, mask); the server downloads aggregated
// state. The encoding is what the paper's cost model charges for:
// 32-bit floats for kept values, 1 bit per mask entry (§4.2.2), plus a
// small self-describing header (entry names/shapes) that the closed-form
// model ignores. encode/decode round-trip exactly, so the byte ledger
// measures real, reconstructible traffic — not an estimate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/parameter.h"
#include "pruning/mask.h"

namespace subfed {

/// Serializes `state`. For entries covered by `mask` (nullable), only kept
/// values are written, preceded by a packed bitmap; uncovered entries are
/// written dense.
std::vector<std::uint8_t> encode_update(const StateDict& state, const ModelMask* mask);

/// Inverse of encode_update. Masked-out positions decode as exact zeros.
/// When `mask_out` is non-null, the per-entry keep bitmaps are reconstructed
/// into it (covered entries only) — the wire format carries the mask, so a
/// receiver that never saw the sender's ModelMask recovers it exactly.
StateDict decode_update(std::span<const std::uint8_t> bytes, ModelMask* mask_out = nullptr);

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
