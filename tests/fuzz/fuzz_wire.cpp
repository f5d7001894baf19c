// Fuzz harness: the wire-format coding table's primitive round trips
// (whitening, Hamming, diagonal interleaver, Gray shift mapping, header),
// and for both frame formats the full rx::FrameCodec encode -> decode
// identity over arbitrary configurations and decoder totality on arbitrary
// (possibly cut-short) bins.
#include <cstddef>
#include <cstdint>

#include "testing/oracles.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  tnb::testing::FuzzInput in(data, size);
  switch (in.u8() % 3) {
    case 0:
      tnb::testing::oracle_wire_primitives_roundtrip(in);
      break;
    case 1:
      tnb::testing::oracle_codec_roundtrip(in);
      break;
    default:
      tnb::testing::oracle_codec_totality(in);
      break;
  }
  return 0;
}
