// Fuzz harness: the paper-format PHY header. Round trips through
// nibbles/symbols/BEC, parser totality on arbitrary bytes, and the
// serializer's contract (a header with CR 1..4 parses back from its
// nibbles at any block height, any other CR never does).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lora/coding.hpp"
#include "testing/oracles.hpp"

namespace {

void serializer_contract(tnb::testing::FuzzInput& in) {
  tnb::lora::Header h;
  h.payload_len = in.u8();
  h.cr = static_cast<std::uint8_t>(in.uniform(0, 7));
  h.has_crc = in.boolean();
  const unsigned rows = std::max(static_cast<unsigned>(in.uniform(0, 16)), 5u);
  const bool in_contract = h.cr >= 1 && h.cr <= 4;
  const auto& paper = tnb::lora::coding_table(tnb::lora::Coding::kPaper);
  const auto header = paper.header_nibbles(h);
  std::vector<std::uint8_t> nibbles(rows, 0);
  std::copy(header.begin(), header.end(), nibbles.begin());
  const auto parsed = paper.parse_header(nibbles);
  TNB_ORACLE(parsed.has_value() == in_contract,
             "header parse accepted an out-of-range CR or rejected a valid one");
  TNB_ORACLE(!in_contract || *parsed == h,
             "serializer output does not parse back");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  tnb::testing::FuzzInput in(data, size);
  switch (in.u8() % 3) {
    case 0:
      tnb::testing::oracle_header_roundtrip(in);
      break;
    case 1:
      tnb::testing::oracle_header_parse_total(in);
      break;
    default:
      serializer_contract(in);
      break;
  }
  return 0;
}
