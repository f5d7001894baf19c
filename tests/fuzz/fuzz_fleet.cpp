// Fuzz harness: gateway fleet. The channelizer round trip (the analysis
// inverts mix_channels, chunking invariance, sticky sub-block tail — the
// IstreamSource torn-pair semantics one level up) and the fleet
// differential: multi-lane scheduling over arbitrary wideband IQ must
// reproduce the single-lane ledger entry for entry.
#include <cstddef>
#include <cstdint>

#include "testing/oracles.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  tnb::testing::FuzzInput in(data, size);
  if (in.boolean()) {
    tnb::testing::oracle_channelizer_roundtrip(in);
  } else {
    tnb::testing::oracle_fleet_differential(in);
  }
  return 0;
}
