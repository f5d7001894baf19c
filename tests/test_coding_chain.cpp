#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/frame_codec.hpp"
#include "lora/coding.hpp"
#include "lora/gray.hpp"

namespace tnb::lora {
namespace {

TEST(Gray, RoundTrip) {
  for (std::uint32_t x = 0; x < 4096; ++x) {
    EXPECT_EQ(gray_decode(gray_encode(x)), x);
    EXPECT_EQ(gray_encode(gray_decode(x)), x);
  }
}

TEST(Gray, AdjacentValuesDifferByOneBit) {
  for (std::uint32_t x = 0; x < 1023; ++x) {
    const std::uint32_t d = gray_encode(x) ^ gray_encode(x + 1);
    EXPECT_EQ(d & (d - 1), 0u);  // power of two -> exactly one bit
    EXPECT_NE(d, 0u);
  }
}

TEST(Gray, ShiftValueMappingInverse) {
  const CodingTable& t = coding_table(Coding::kPaper);
  for (std::uint32_t v = 0; v < 1024; ++v) {
    EXPECT_EQ(value_for_bin(t, 10, shift_for_value(t, 10, v, false), false), v);
  }
}

const CodingTable& paper() { return coding_table(Coding::kPaper); }

/// The first `n` bytes of the paper format's whitening sequence.
std::vector<std::uint8_t> whitening_sequence(std::size_t n) {
  std::vector<std::uint8_t> seq(n, 0);
  paper().whiten(seq);
  return seq;
}

/// True if the last two bytes are the paper CRC16 of the rest.
bool crc_ok(std::span<const std::uint8_t> payload) {
  const std::size_t n = payload.size() - 2;
  return paper().crc_bytes(payload.first(n)) ==
         std::array<std::uint8_t, 2>{payload[n], payload[n + 1]};
}

/// Header nibbles of a header block of `rows` rows (zero padding).
std::vector<std::uint8_t> header_rows(const Header& h, unsigned rows) {
  const auto n = paper().header_nibbles(h);
  std::vector<std::uint8_t> out(rows, 0);
  std::copy(n.begin(), n.end(), out.begin());
  return out;
}

/// The paper header checksum carried in nibbles 3 and 4.
unsigned header_checksum(const Header& h) {
  const auto n = paper().header_nibbles(h);
  return n[3] | (n[4] << 4);
}

TEST(Whitening, IsInvolution) {
  Rng rng(1);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  std::vector<std::uint8_t> orig = data;
  paper().whiten(data);
  EXPECT_NE(data, orig);  // sequence is nontrivial
  paper().whiten(data);
  EXPECT_EQ(data, orig);
}

TEST(Whitening, SequenceIsDeterministicAndBalanced) {
  auto a = whitening_sequence(512);
  auto b = whitening_sequence(512);
  EXPECT_EQ(a, b);
  // A PN9 sequence is nearly balanced: count ones across bits.
  std::size_t ones = 0;
  for (std::uint8_t byte : a) ones += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(byte)));
  EXPECT_NEAR(static_cast<double>(ones), 512 * 4.0, 512 * 0.5);
}

TEST(Whitening, PrefixConsistency) {
  auto longer = whitening_sequence(100);
  auto shorter = whitening_sequence(10);
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), longer.begin()));
}

class InterleaverRoundTrip
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(InterleaverRoundTrip, Bijective) {
  const auto [sf, cr] = GetParam();
  Rng rng(sf * 10 + cr);
  std::vector<std::uint8_t> rows(sf);
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << (4 + cr)) - 1u);
  for (auto& r : rows) r = static_cast<std::uint8_t>(rng.uniform_index(256)) & mask;
  const auto symbols = interleave_block(rows, cr, false);
  ASSERT_EQ(symbols.size(), 4 + cr);
  for (std::uint32_t s : symbols) EXPECT_LT(s, 1u << sf);
  const auto back = deinterleave_block(symbols, sf, cr, false);
  EXPECT_EQ(back, rows);
}

INSTANTIATE_TEST_SUITE_P(
    SfCrGrid, InterleaverRoundTrip,
    ::testing::Combine(::testing::Values(5u, 7u, 8u, 10u, 12u),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(Interleaver, OneSymbolCorruptsOneColumn) {
  // The property BEC depends on: flipping bits of one received symbol
  // changes exactly one column of the deinterleaved block.
  const unsigned sf = 8, cr = 3;
  Rng rng(77);
  std::vector<std::uint8_t> rows(sf);
  for (auto& r : rows) r = static_cast<std::uint8_t>(rng.uniform_index(128));
  auto symbols = interleave_block(rows, cr, false);
  const unsigned victim = 5;
  symbols[victim] ^= 0xA5 & ((1u << sf) - 1u);  // corrupt symbol 5
  const auto back = deinterleave_block(symbols, sf, cr, false);
  for (unsigned r = 0; r < sf; ++r) {
    const std::uint8_t diff = back[r] ^ rows[r];
    EXPECT_EQ(diff & static_cast<std::uint8_t>(~(1u << victim)), 0)
        << "row " << r << " differs outside column " << victim;
  }
}

TEST(Interleaver, SizeValidation) {
  std::vector<std::uint32_t> syms(7);
  EXPECT_THROW(deinterleave_block(syms, 8, 4, false), std::invalid_argument);
}

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE("123456789") = 0x29B1, appended big-endian.
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(paper().crc_bytes(std::span<const std::uint8_t>(msg)),
            (std::array<std::uint8_t, 2>{0x29, 0xB1}));
}

TEST(Crc16, DetectsSingleBitFlip) {
  Rng rng(9);
  std::vector<std::uint8_t> msg(32);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const auto good = paper().crc_bytes(msg);
  for (std::size_t byte = 0; byte < msg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      msg[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(paper().crc_bytes(msg), good);
      msg[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(HeaderChecksum, SensitiveToEveryField) {
  const unsigned base = header_checksum({16, 3, true});
  EXPECT_NE(header_checksum({17, 3, true}), base);
  EXPECT_NE(header_checksum({16, 4, true}), base);
  EXPECT_NE(header_checksum({16, 3, false}), base);
}

TEST(Header, NibbleRoundTrip) {
  for (unsigned sf : {5u, 7u, 8u, 10u, 12u}) {
    for (unsigned cr = 1; cr <= 4; ++cr) {
      Header h{.payload_len = 16, .cr = static_cast<std::uint8_t>(cr), .has_crc = true};
      const auto nibbles = header_rows(h, sf);
      ASSERT_EQ(nibbles.size(), sf);
      const auto parsed = paper().parse_header(nibbles);
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(*parsed, h);
    }
  }
}

TEST(Header, CorruptedChecksumRejected) {
  Header h{.payload_len = 16, .cr = 3, .has_crc = true};
  auto nibbles = header_rows(h, 8);
  nibbles[0] ^= 0x1;  // corrupt the length field
  EXPECT_FALSE(paper().parse_header(nibbles).has_value());
}

TEST(Header, NonzeroPaddingRejected) {
  Header h{.payload_len = 16, .cr = 3, .has_crc = true};
  auto nibbles = header_rows(h, 8);
  nibbles[6] = 0xF;
  EXPECT_FALSE(paper().parse_header(nibbles).has_value());
}

TEST(Header, SymbolRoundTripThroughDefaultDecode) {
  Params p{.sf = 10, .cr = 2};
  Header h{.payload_len = 18, .cr = 2, .has_crc = true};
  const auto shifts = encode_frame(Coding::kPaper, p, std::vector<std::uint8_t>(16));
  const rx::FrameCodec codec({.params = p, .use_bec = false});
  ASSERT_EQ(codec.header_symbols(), kHeaderSymbols);
  const auto parsed = codec.decode_header(
      std::span<const std::uint32_t>(shifts).first(kHeaderSymbols), nullptr);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(Frame, NibbleByteRoundTrip) {
  // Payload bytes fill the block rows low nibble first: rows 2i and 2i+1
  // of the first payload block carry the (whitened) byte i.
  const Params p{.sf = 8, .cr = 4};
  const std::vector<std::uint8_t> app{0x12, 0xAB, 0xF0, 0x07};
  const auto shifts = encode_frame(Coding::kPaper, p, app, /*implicit_header=*/true);
  std::vector<std::uint32_t> values(8);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = value_for_bin(paper(), p.sf, shifts[i], false);
  }
  const auto rows = deinterleave_block(values, 8, 4, false);
  ASSERT_EQ(rows.size(), 8u);
  std::vector<std::uint8_t> bytes(4);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(codeword_data(paper(), rows[2 * i], 4) |
                                         codeword_data(paper(), rows[2 * i + 1], 4) << 4);
  }
  paper().whiten(bytes);
  EXPECT_EQ(bytes, app);
}

TEST(Frame, PayloadBlockCounts) {
  // Paper: a 16-byte packet has 3 to 5 blocks depending on SF.
  const auto blocks = [](unsigned sf) {
    return frame_layout(paper(), Params{.sf = sf}, Header{16, 4, true}, false)
        .blocks.size();
  };
  EXPECT_EQ(blocks(8), 4u);   // 32 nibbles / 8
  EXPECT_EQ(blocks(10), 4u);  // ceil(32/10)
  EXPECT_EQ(blocks(12), 3u);
  EXPECT_EQ(blocks(7), 5u);
}

TEST(Frame, AssembleAndCheckCrc) {
  std::vector<std::uint8_t> app{1, 2, 3, 4, 5};
  std::vector<std::uint8_t> payload = app;
  const auto crc = paper().crc_bytes(app);
  payload.insert(payload.end(), crc.begin(), crc.end());
  ASSERT_EQ(payload.size(), 7u);
  EXPECT_TRUE(crc_ok(payload));
  payload[2] ^= 0x40;
  EXPECT_FALSE(crc_ok(payload));
}

TEST(Frame, CheckCrcRejectsTinyInputs) {
  // An on-air payload of the CRC16 alone never passes, even when its two
  // bytes happen to equal the CRC of nothing.
  const Params p{.sf = 8, .cr = 4};
  const rx::FrameCodec codec(
      {.params = p, .implicit_header = rx::ImplicitHeader{2, 4}});
  const auto shifts = codec.encode_shifts({});
  Rng rng(1);
  EXPECT_FALSE(codec.decode_frame(shifts, *codec.implicit_header(), rng, nullptr).ok);
}

class FrameRoundTrip : public ::testing::TestWithParam<
                           std::tuple<unsigned, unsigned, bool>> {};

TEST_P(FrameRoundTrip, EncodeDecodeClean) {
  const auto [sf, cr, ldro] = GetParam();
  if (ldro && sf < 8) {
    GTEST_SKIP() << "LDRO needs SF >= 8 (Params::validate)";
  }
  Params p{.sf = sf, .cr = cr, .ldro = ldro};
  p.validate();
  Rng rng(sf * 100 + cr * 10 + (ldro ? 1 : 0));
  std::vector<std::uint8_t> app(14);
  for (auto& b : app) b = static_cast<std::uint8_t>(rng.uniform_index(256));

  const auto shifts = encode_frame(Coding::kPaper, p, app);
  ASSERT_EQ(shifts.size(), frame_symbols(Coding::kPaper, p, app.size()));
  for (std::uint32_t s : shifts) {
    EXPECT_LT(value_for_bin(paper(), sf, s, ldro), 1u << p.bits_per_symbol());
    EXPECT_EQ(shift_for_value(paper(), sf, value_for_bin(paper(), sf, s, ldro), ldro), s);
  }

  // Header first.
  const rx::FrameCodec codec({.params = p, .use_bec = false});
  const auto hdr = codec.decode_header(
      std::span<const std::uint32_t>(shifts).first(kHeaderSymbols), nullptr);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->payload_len, app.size() + 2);
  EXPECT_EQ(hdr->cr, cr);

  const auto payload = codec.decode_frame(shifts, *hdr, rng, nullptr);
  ASSERT_TRUE(payload.ok);
  EXPECT_EQ(payload.payload, app);
}

// The full supported grid: every SF x CR x LDRO combination (invalid
// LDRO/SF pairs skip themselves above).
INSTANTIATE_TEST_SUITE_P(
    SfCrLdroGrid, FrameRoundTrip,
    ::testing::Combine(::testing::Values(5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u),
                       ::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Bool()));

/// Payload symbols' values XORed with `x` (every `step`-th from `first`).
void corrupt_values(const Params& p, std::vector<std::uint32_t>& shifts,
                    std::size_t first, std::size_t step, std::uint32_t x) {
  for (std::size_t i = first; i < shifts.size(); i += step) {
    const std::uint32_t v = value_for_bin(paper(), p.sf, shifts[i], p.ldro) ^ x;
    shifts[i] = shift_for_value(paper(), p.sf, v, p.ldro);
  }
}

TEST(Frame, DecodeSurvivesOneBitErrorPerCodewordAtCr4) {
  Params p{.sf = 8, .cr = 4};
  std::vector<std::uint8_t> app(14, 0x5A);
  auto shifts = encode_frame(Coding::kPaper, p, app);
  // Flip one bit in one payload symbol: lands in one column of one block;
  // each affected codeword sees at most 1 bit error, correctable at CR4.
  corrupt_values(p, shifts, kHeaderSymbols + 2, shifts.size(), 1u);
  const rx::FrameCodec codec({.params = p, .use_bec = false});
  Rng rng(1);
  EXPECT_TRUE(codec.decode_frame(shifts, Header{16, 4, true}, rng, nullptr).ok);
}

TEST(Frame, DecodeFailsCrcOnHeavyCorruption) {
  Params p{.sf = 8, .cr = 1};
  std::vector<std::uint8_t> app(14, 0x33);
  auto shifts = encode_frame(Coding::kPaper, p, app);
  corrupt_values(p, shifts, kHeaderSymbols, 2, 0xFF);
  const rx::FrameCodec codec({.params = p, .use_bec = false});
  Rng rng(1);
  EXPECT_FALSE(codec.decode_frame(shifts, Header{16, 1, true}, rng, nullptr).ok);
}

TEST(Frame, PayloadTooLongThrows) {
  Params p{.sf = 8, .cr = 4};
  std::vector<std::uint8_t> app(300);
  EXPECT_THROW(encode_frame(Coding::kPaper, p, app), std::invalid_argument);
}

}  // namespace
}  // namespace tnb::lora
