// Half-precision scalar conversion for the channel's fp16 payload codec
// (comm/channel.h): IEEE-754 binary16, rounded to nearest, overflow
// saturating to infinity.
#pragma once

#include <cstdint>

namespace subfed {

std::uint16_t fp32_to_fp16(float value) noexcept;
float fp16_to_fp32(std::uint16_t half) noexcept;

}  // namespace subfed
