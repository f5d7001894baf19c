// Fuzz harness: dsp::FftBackend. Arbitrary pow2 sizes up to 2^15 on every
// registered backend (scalar always; avx2/avx512 when built and
// supported): determinism, forward->inverse round-trip bound,
// transform_batch bit-identity against per-row transforms, and the scalar
// backend byte-equal to the reference loops on arbitrary float bits.
#include <cstddef>
#include <cstdint>

#include "testing/oracles.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  tnb::testing::FuzzInput in(data, size);
  tnb::testing::oracle_fft_backend(in);
  return 0;
}
