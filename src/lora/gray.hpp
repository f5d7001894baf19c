// Gray code mapping between FFT-bin indices and data symbol values.
//
// LoRa maps data onto chirp shifts through a Gray code so that the most
// common demodulation error — the peak landing one bin off — flips a single
// bit, which the Hamming code can absorb. A totally wrong peak (a collision
// artifact) randomizes the bits, which is exactly the per-column error model
// BEC is built on.
#pragma once

#include <cstdint>

namespace tnb::lora {

/// Binary-reflected Gray code of x.
constexpr std::uint32_t gray_encode(std::uint32_t x) { return x ^ (x >> 1); }

/// Inverse of gray_encode.
constexpr std::uint32_t gray_decode(std::uint32_t g) {
  std::uint32_t x = g;
  for (std::uint32_t shift = 1; shift < 32; shift <<= 1) x ^= x >> shift;
  return x;
}

}  // namespace tnb::lora
