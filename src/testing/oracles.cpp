#include "testing/oracles.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "baselines/factories.hpp"
#include "baselines/lzn_sync.hpp"
#include "common/rng.hpp"
#include "core/bec.hpp"
#include "core/frame_codec.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_backend.hpp"
#include "fleet/channelizer.hpp"
#include "fleet/fleet.hpp"
#include "lora/coding.hpp"
#include "lora/gray.hpp"
#include "lora/modulator.hpp"
#include "sim/trace_builder.hpp"
#include "sim/trace_io.hpp"
#include "stream/chunk_source.hpp"
#include "stream/streaming_receiver.hpp"
#include "testing/arbitrary.hpp"
#include "testing/reference_fft.hpp"

namespace tnb::testing {

void oracle_fail(const char* file, int line, const std::string& msg) {
  throw OracleFailure(std::string(file) + ":" + std::to_string(line) +
                      ": oracle violated: " + msg);
}

namespace {

/// Serializes IQ-pair int16s little-endian — the reference encoder the
/// trace_io oracles diff the production reader against.
std::string serialize_i16_le(const std::vector<std::int16_t>& vals) {
  std::string bytes;
  bytes.reserve(vals.size() * 2);
  for (std::int16_t v : vals) {
    const auto u = static_cast<std::uint16_t>(v);
    bytes.push_back(static_cast<char>(u & 0xFF));
    bytes.push_back(static_cast<char>(u >> 8));
  }
  return bytes;
}

std::int16_t i16_at(std::span<const std::uint8_t> bytes, std::size_t i) {
  return static_cast<std::int16_t>(
      static_cast<std::uint16_t>(bytes[2 * i]) |
      (static_cast<std::uint16_t>(bytes[2 * i + 1]) << 8));
}

}  // namespace

// ---------------------------------------------------------------- primitives

void oracle_primitives_roundtrip(FuzzInput& in) {
  // Gray code is a bijection on any 32-bit value.
  const std::uint32_t x = static_cast<std::uint32_t>(in.u64(4));
  TNB_ORACLE(lora::gray_decode(lora::gray_encode(x)) == x, "gray o gray^-1");
  TNB_ORACLE(lora::gray_encode(lora::gray_decode(x)) == x, "gray^-1 o gray");

  // Whitening is an involution on any byte string.
  std::vector<std::uint8_t> data =
      in.bytes(static_cast<std::size_t>(in.uniform(0, 128)));
  const std::vector<std::uint8_t> orig = data;
  const lora::CodingTable& paper = lora::coding_table(lora::Coding::kPaper);
  paper.whiten(data);
  paper.whiten(data);
  TNB_ORACLE(data == orig, "whitening not an involution");

  // Interleaver is a bijection, and one corrupted symbol lands in exactly
  // one column of the deinterleaved block — the error model BEC rests on.
  const unsigned sf = static_cast<unsigned>(in.uniform(5, 12));
  const unsigned cr = static_cast<unsigned>(in.uniform(1, 4));
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << (4 + cr)) - 1u);
  std::vector<std::uint8_t> rows(sf);
  for (auto& r : rows) r = static_cast<std::uint8_t>(in.u8() & mask);
  auto symbols = lora::interleave_block(rows, cr, false);
  TNB_ORACLE(lora::deinterleave_block(symbols, sf, cr, false) == rows,
             "interleaver round trip");
  const unsigned victim = static_cast<unsigned>(in.uniform(0, 4 + cr - 1));
  const std::uint32_t sym_mask = (1u << sf) - 1u;
  symbols[victim] ^= static_cast<std::uint32_t>(in.uniform(1, sym_mask));
  const auto back = lora::deinterleave_block(symbols, sf, cr, false);
  for (unsigned r = 0; r < sf; ++r) {
    TNB_ORACLE((static_cast<std::uint8_t>(back[r] ^ rows[r]) &
                static_cast<std::uint8_t>(~(1u << victim))) == 0,
               "symbol corruption escaped its column");
  }

  // Hamming: every codeword carries its nibble and decodes back at
  // distance 0; at CR >= 3 a single-bit error still decodes back.
  const std::uint8_t nib = static_cast<std::uint8_t>(in.u8() & 0x0F);
  for (unsigned c = 1; c <= 4; ++c) {
    const std::uint8_t cw = lora::codebook(c)[nib];
    TNB_ORACLE(lora::codeword_data(paper, cw, c) == nib, "codeword data");
    const auto d0 = lora::nearest_codeword(cw, lora::codebook(c));
    TNB_ORACLE(d0.data == nib && d0.distance == 0, "clean codeword decode");
    if (c >= 3) {
      const unsigned bit = static_cast<unsigned>(in.uniform(0, 4 + c - 1));
      const auto d1 = lora::nearest_codeword(
          static_cast<std::uint8_t>(cw ^ (1u << bit)), lora::codebook(c));
      TNB_ORACLE(d1.data == nib, "1-bit error not corrected at CR>=3");
    }
  }

  // CRC16: payloads with their CRC appended verify; any single-bit flip
  // is caught.
  std::vector<std::uint8_t> app =
      in.bytes(static_cast<std::size_t>(in.uniform(1, 64)));
  if (app.empty()) app.push_back(0);
  std::vector<std::uint8_t> payload = app;
  const auto crc = paper.crc_bytes(app);
  payload.insert(payload.end(), crc.begin(), crc.end());
  const auto crc_ok = [&paper](std::span<const std::uint8_t> bytes) {
    const std::size_t n = bytes.size() - 2;
    return paper.crc_bytes(bytes.first(n)) ==
           std::array<std::uint8_t, 2>{bytes[n], bytes[n + 1]};
  };
  TNB_ORACLE(crc_ok(payload), "fresh payload fails CRC");
  const std::size_t fb = static_cast<std::size_t>(
      in.uniform(0, payload.size() * 8 - 1));
  payload[fb / 8] ^= static_cast<std::uint8_t>(1u << (fb % 8));
  TNB_ORACLE(!crc_ok(payload), "single-bit flip passed CRC16");
}

// --------------------------------------------------------------- full chain

void oracle_coding_chain_roundtrip(FuzzInput& in) {
  const lora::Params p = arbitrary_params(in);
  const std::vector<std::uint8_t> app = arbitrary_payload(in, 48);
  const auto shifts = lora::encode_frame(lora::Coding::kPaper, p, app);
  TNB_ORACLE(shifts.size() == lora::frame_symbols(lora::Coding::kPaper, p,
                                                  app.size()),
             "packet symbol count");
  for (std::uint32_t s : shifts) {
    TNB_ORACLE(s < p.n_bins(), "shift out of bin range");
  }

  const std::span<const std::uint32_t> all(shifts);
  const rx::FrameCodec plain({p, /*use_bec=*/false, {}, lora::Coding::kPaper});
  const rx::FrameCodec bec({p, /*use_bec=*/true, {}, lora::Coding::kPaper});
  const auto hdr = plain.decode_header(all.first(lora::kHeaderSymbols), nullptr);
  TNB_ORACLE(hdr.has_value(), "clean header failed default decode");
  TNB_ORACLE(hdr->payload_len == app.size() + 2 && hdr->cr == p.cr,
             "clean header fields");

  Rng rng(in.u64());
  const auto pay = plain.decode_frame(all, *hdr, rng, nullptr);
  TNB_ORACLE(pay.ok, "clean payload failed default decode");
  TNB_ORACLE(pay.payload == app, "clean payload default decode mismatch");

  // BEC on a clean packet: the default-decoder block is candidate #1 and
  // already carries a valid CRC, so the result is deterministic.
  const auto r = bec.decode_frame(all, *hdr, rng, nullptr);
  TNB_ORACLE(r.ok, "clean payload failed BEC decode");
  TNB_ORACLE(r.payload == app, "clean payload BEC mismatch");
  TNB_ORACLE(r.rescued_codewords == 0, "clean packet claims rescues");

  const auto hdr_bec = bec.decode_header(all.first(lora::kHeaderSymbols), nullptr);
  TNB_ORACLE(hdr_bec.has_value() && *hdr_bec == *hdr,
             "clean header BEC mismatch");
}

void oracle_coding_chain_corrupted(FuzzInput& in) {
  const lora::Params p = arbitrary_params(in);
  const std::vector<std::uint8_t> app = arbitrary_payload(in, 48);
  std::vector<std::uint32_t> shifts =
      lora::encode_frame(lora::Coding::kPaper, p, app);
  corrupt_symbols(shifts, p.sf, in, shifts.size());

  const std::span<const std::uint32_t> all(shifts);
  const rx::FrameCodec plain({p, /*use_bec=*/false, {}, lora::Coding::kPaper});
  const rx::FrameCodec bec({p, /*use_bec=*/true, {}, lora::Coding::kPaper});
  // Totality: arbitrary corruption must only ever yield nullopt/!ok or a
  // value that passed the integrity gate.
  const auto hdr = plain.decode_header(all.first(lora::kHeaderSymbols), nullptr);
  if (hdr.has_value()) {
    TNB_ORACLE(hdr->cr >= 1 && hdr->cr <= 4, "accepted header has bad CR");
  }
  const auto hdr_bec = bec.decode_header(all.first(lora::kHeaderSymbols), nullptr);
  if (hdr_bec.has_value()) {
    TNB_ORACLE(hdr_bec->cr >= 1 && hdr_bec->cr <= 4,
               "accepted BEC header has bad CR");
  }

  const lora::Header truth{static_cast<std::uint8_t>(app.size() + 2),
                           static_cast<std::uint8_t>(p.cr), true};
  Rng rng(in.u64());
  const auto pay = plain.decode_frame(all, truth, rng, nullptr);
  if (pay.ok) {
    TNB_ORACLE(pay.payload.size() == app.size(), "accepted payload length");
  }
  rx::BecStats stats;
  const auto r = bec.decode_frame(all, truth, rng, &stats);
  if (r.ok) {
    TNB_ORACLE(r.payload.size() == app.size(), "BEC payload length");
  }
  TNB_ORACLE(stats.crc_checks <= rx::bec_w_budget(p.cr),
             "BEC exceeded its W budget");
}

// -------------------------------------------------------------------- header

namespace {

/// Data nibbles of a paper-format header block of `rows` rows: the header,
/// then zero padding.
std::vector<std::uint8_t> paper_header_rows(const lora::Header& h,
                                            std::size_t rows) {
  const auto n = lora::coding_table(lora::Coding::kPaper).header_nibbles(h);
  std::vector<std::uint8_t> out(std::max<std::size_t>(rows, n.size()), 0);
  std::copy(n.begin(), n.end(), out.begin());
  return out;
}

}  // namespace

void oracle_header_roundtrip(FuzzInput& in) {
  const lora::Params p = arbitrary_params(in);
  const lora::Header h = arbitrary_header(in);
  const unsigned sf_bits = p.bits_per_symbol();
  const lora::CodingTable& paper = lora::coding_table(lora::Coding::kPaper);

  const auto nibbles = paper_header_rows(h, sf_bits);
  const auto parsed = paper.parse_header(nibbles);
  TNB_ORACLE(parsed.has_value() && *parsed == h, "header nibble round trip");

  // The header block: CR 4 codewords, interleaved, one symbol value per
  // column (then mapped to shifts).
  std::vector<std::uint8_t> rows(sf_bits);
  for (unsigned r = 0; r < sf_bits; ++r) rows[r] = lora::codebook(4)[nibbles[r]];
  auto values = lora::interleave_block(rows, 4, false);
  TNB_ORACLE(values.size() == lora::kHeaderSymbols, "header symbol count");
  const auto to_shifts = [&](const std::vector<std::uint32_t>& v) {
    std::vector<std::uint32_t> shifts;
    for (std::uint32_t x : v) {
      shifts.push_back(lora::shift_for_value(paper, p.sf, x, p.ldro));
    }
    return shifts;
  };
  const rx::FrameCodec plain({p, /*use_bec=*/false, {}, lora::Coding::kPaper});
  const rx::FrameCodec bec({p, /*use_bec=*/true, {}, lora::Coding::kPaper});
  const auto dec = plain.decode_header(to_shifts(values), nullptr);
  TNB_ORACLE(dec.has_value() && *dec == h, "header symbol round trip");

  // One corrupted symbol = one corrupted column of the CR-4 header block:
  // every row is within distance 1, the default decoder cleans all of
  // them, and both decoders must return exactly h.
  const std::size_t victim =
      static_cast<std::size_t>(in.uniform(0, values.size() - 1));
  const std::uint32_t sym_mask = (1u << sf_bits) - 1u;
  values[victim] ^= static_cast<std::uint32_t>(in.uniform(1, sym_mask));
  const auto dec1 = plain.decode_header(to_shifts(values), nullptr);
  TNB_ORACLE(dec1.has_value() && *dec1 == h,
             "1-symbol corruption broke default header decode");
  const auto bec1 = bec.decode_header(to_shifts(values), nullptr);
  TNB_ORACLE(bec1.has_value() && *bec1 == h,
             "1-symbol corruption broke BEC header decode");
}

void oracle_header_parse_total(FuzzInput& in) {
  const std::vector<std::uint8_t> raw =
      in.bytes(static_cast<std::size_t>(in.uniform(0, 64)));
  const lora::CodingTable& paper = lora::coding_table(lora::Coding::kPaper);
  const auto parsed = paper.parse_header(raw);
  if (raw.size() < 5) {
    TNB_ORACLE(!parsed.has_value(), "accepted a <5-nibble header");
    return;
  }
  if (!parsed.has_value()) return;
  // Accepted headers are serialize/parse fixpoints.
  TNB_ORACLE(parsed->cr >= 1 && parsed->cr <= 4, "accepted header bad CR");
  const auto again =
      paper.parse_header(paper_header_rows(*parsed, std::max<std::size_t>(raw.size(), 6)));
  TNB_ORACLE(again.has_value() && *again == *parsed,
             "accepted header is not a serialize/parse fixpoint");
}

// ----------------------------------------------------------------------- BEC

namespace {

std::vector<std::uint8_t> arbitrary_codeword_block(FuzzInput& in, unsigned sf,
                                                   unsigned cr) {
  std::vector<std::uint8_t> rows(sf);
  for (auto& r : rows) {
    r = lora::codebook(cr)[in.uniform(0, 15)];
  }
  return rows;
}

bool block_in(const std::vector<std::vector<std::uint8_t>>& candidates,
              const std::vector<std::uint8_t>& truth) {
  return std::find(candidates.begin(), candidates.end(), truth) !=
         candidates.end();
}

}  // namespace

void oracle_bec_arbitrary_block(FuzzInput& in) {
  const unsigned sf = static_cast<unsigned>(in.uniform(5, 12));
  const unsigned cr = static_cast<unsigned>(in.uniform(1, 4));
  const rx::Bec bec(sf, cr);
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << (4 + cr)) - 1u);
  std::vector<std::uint8_t> rows(sf);
  for (auto& r : rows) r = static_cast<std::uint8_t>(in.u8() & mask);

  rx::BecStats stats;
  const auto cands = bec.decode_block(rows, &stats);
  TNB_ORACLE(!cands.empty(), "no candidates for an in-contract block");
  if (cr == 1) {
    // CR 1 contract (paper 6.4): a block whose rows all pass parity is its
    // own single candidate; otherwise only the <= 5 Delta' column rewrites
    // are offered — Gamma is deliberately absent, keeping the packet-level
    // combination count at 5^k, which the W = 125 budget is sized for.
    const bool all_pass = std::all_of(
        rows.begin(), rows.end(), [](std::uint8_t r) {
          return std::popcount(static_cast<unsigned>(r)) % 2 == 0;
        });
    if (all_pass) {
      TNB_ORACLE(cands.size() == 1 &&
                     cands[0] == std::vector<std::uint8_t>(rows.begin(),
                                                           rows.end()),
                 "parity-clean CR1 block is not its own single candidate");
    } else {
      TNB_ORACLE(cands.size() <= 4 + cr, "CR1 produced more than one Delta' "
                                         "candidate per column");
    }
  } else {
    // CR >= 2: candidate #1 is the cleaned block Gamma (per-row default
    // decode), so a caller taking the first candidate gets exactly the
    // default decoder's answer.
    for (unsigned r = 0; r < sf; ++r) {
      TNB_ORACLE(cands[0][r] == lora::nearest_codeword(rows[r], lora::codebook(cr)).codeword,
                 "first candidate is not the default-decoder block");
    }
  }
  for (std::size_t i = 0; i < cands.size(); ++i) {
    TNB_ORACLE(cands[i].size() == sf, "candidate row count");
    for (std::uint8_t row : cands[i]) {
      const auto& cb = lora::codebook(cr);
      TNB_ORACLE(std::find(cb.begin(), cb.end(), row) != cb.end(),
                 "candidate contains a non-codeword row");
    }
    for (std::size_t j = i + 1; j < cands.size(); ++j) {
      TNB_ORACLE(cands[i] != cands[j], "duplicate candidates");
    }
  }
}

void oracle_bec_correctable(FuzzInput& in) {
  const unsigned sf = static_cast<unsigned>(in.uniform(5, 12));
  const unsigned cr = static_cast<unsigned>(in.uniform(1, 4));
  const rx::Bec bec(sf, cr);
  const auto truth = arbitrary_codeword_block(in, sf, cr);
  // Documented guaranteed capability (paper Table 1 / tests): one error
  // column at every CR, two at CR 4. (Two columns at CR 3 succeed with
  // probability 1 - ~2^-SF — probabilistic, so not asserted here.)
  const unsigned t =
      cr == 4 ? static_cast<unsigned>(in.uniform(1, 2)) : 1u;
  const auto cols = arbitrary_columns(in, cr, t);
  auto rx_rows = truth;
  corrupt_block_columns(rx_rows, cols, in);
  const auto cands = bec.decode_block(rx_rows);
  TNB_ORACLE(block_in(cands, truth),
             "correctable corruption lost the original block (cr=" +
                 std::to_string(cr) + ", t=" + std::to_string(t) + ")");
}

void oracle_bec_packet(FuzzInput& in) {
  const lora::Params p = arbitrary_params(in);
  const std::vector<std::uint8_t> app = arbitrary_payload(in, 32);
  const rx::FrameCodec codec(
      {p, /*use_bec=*/true,
       rx::ImplicitHeader{static_cast<std::uint8_t>(app.size() + 2),
                          static_cast<std::uint8_t>(p.cr)},
       lora::Coding::kPaper});
  std::vector<std::uint32_t> symbols = codec.encode_shifts(app);

  // One corrupted symbol in each of at most two blocks: inside both BEC's
  // per-block capability and the packet-assembly W budget, so the decode
  // is guaranteed (the paper's operating envelope, mirrored by
  // tests/test_bec.cpp BecPacket).
  const std::size_t cols = p.codeword_len();
  const std::size_t n_blocks = symbols.size() / cols;
  const std::uint32_t sym_mask = (1u << p.bits_per_symbol()) - 1u;
  std::vector<std::size_t> hit;
  hit.push_back(static_cast<std::size_t>(in.uniform(0, n_blocks - 1)));
  if (n_blocks > 1 && in.boolean()) {
    // A second, distinct block — two corruptions in one block would be two
    // error columns, beyond the guarantee at CR < 4.
    const std::size_t step =
        1 + static_cast<std::size_t>(in.uniform(0, n_blocks - 2));
    hit.push_back((hit[0] + step) % n_blocks);
  }
  const lora::CodingTable& paper = lora::coding_table(lora::Coding::kPaper);
  for (std::size_t blk : hit) {
    // The corruption XORs the symbol value, as seen after the bin map.
    std::uint32_t& shift =
        symbols[blk * cols + static_cast<std::size_t>(in.uniform(0, cols - 1))];
    const std::uint32_t v = lora::value_for_bin(paper, p.sf, shift, p.ldro) ^
                            static_cast<std::uint32_t>(in.uniform(1, sym_mask));
    shift = lora::shift_for_value(paper, p.sf, v, p.ldro);
  }

  Rng rng(in.u64());
  rx::BecStats stats;
  const auto r =
      codec.decode_frame(symbols, *codec.implicit_header(), rng, &stats);
  TNB_ORACLE(r.ok, "within-capability corruption failed packet BEC");
  TNB_ORACLE(r.payload.size() == app.size(), "accepted payload length");
  TNB_ORACLE(stats.crc_checks <= rx::bec_w_budget(p.cr), "W budget exceeded");
}

// ------------------------------------------------------------------ trace io

void oracle_trace_chunk_arbitrary(FuzzInput& in) {
  const bool tolerate_tear = in.boolean();
  const std::size_t max_samples = static_cast<std::size_t>(in.uniform(1, 1500));
  const std::vector<std::uint8_t> bytes = in.rest();
  const double scale = 1024.0;
  const float inv = static_cast<float>(1.0 / scale);

  std::istringstream s(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  IqBuffer assembled, piece;
  std::uint64_t offset = 0;
  bool truncated = false;
  bool threw = false;
  try {
    bool t = false;
    while (sim::read_trace_i16_chunk(s, piece, max_samples, scale, &offset,
                                     tolerate_tear ? &t : nullptr) > 0) {
      assembled.insert(assembled.end(), piece.begin(), piece.end());
      if (t) {
        truncated = true;
        break;
      }
    }
    truncated = truncated || t;
  } catch (const std::runtime_error&) {
    threw = true;
  }

  const bool torn = bytes.size() % 4 != 0;
  if (tolerate_tear) {
    TNB_ORACLE(!threw, "chunk reader threw despite truncated_tail flag");
    TNB_ORACLE(truncated == torn, "truncated_tail flag wrong");
    TNB_ORACLE(offset == bytes.size(), "byte_offset != bytes consumed");
  } else {
    TNB_ORACLE(threw == torn, "legacy mid-pair contract changed");
  }
  if (!threw) {
    TNB_ORACLE(assembled.size() == bytes.size() / 4,
               "sample count != floor(bytes/4)");
    for (std::size_t i = 0; i < assembled.size(); ++i) {
      const cfloat want{i16_at(bytes, 2 * i) * inv,
                        i16_at(bytes, 2 * i + 1) * inv};
      TNB_ORACLE(assembled[i] == want, "sample value mismatch");
    }
  }
}

void oracle_trace_roundtrip(FuzzInput& in) {
  const std::size_t chunk = static_cast<std::size_t>(in.uniform(1, 700));
  const std::size_t n = static_cast<std::size_t>(in.uniform(0, 600));
  std::vector<std::int16_t> vals(2 * n);
  for (auto& v : vals) v = static_cast<std::int16_t>(in.u64(2));

  std::istringstream s(serialize_i16_le(vals));
  IqBuffer assembled, piece;
  std::uint64_t offset = 0;
  while (sim::read_trace_i16_chunk(s, piece, chunk, 1024.0, &offset) > 0) {
    TNB_ORACLE(piece.size() <= chunk, "chunk larger than requested");
    assembled.insert(assembled.end(), piece.begin(), piece.end());
  }
  TNB_ORACLE(offset == 4 * n, "round-trip byte_offset");
  TNB_ORACLE(assembled.size() == n, "round-trip sample count");
  const float inv = static_cast<float>(1.0 / 1024.0);
  for (std::size_t i = 0; i < n; ++i) {
    const cfloat want{vals[2 * i] * inv, vals[2 * i + 1] * inv};
    TNB_ORACLE(assembled[i] == want, "round-trip sample mismatch");
  }
}

void oracle_chunk_source_truncation(FuzzInput& in) {
  const std::size_t max_samples = static_cast<std::size_t>(in.uniform(1, 900));
  const std::vector<std::uint8_t> bytes = in.rest();
  std::istringstream s(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  stream::IstreamSource src(s);
  IqBuffer chunk;
  std::size_t total = 0;
  while (src.next(chunk, max_samples) > 0) total += chunk.size();
  TNB_ORACLE(total == bytes.size() / 4, "IstreamSource sample total");
  TNB_ORACLE(src.truncated_tail() == (bytes.size() % 4 != 0),
             "IstreamSource truncation status");
  TNB_ORACLE(src.byte_offset() == bytes.size(), "IstreamSource byte_offset");
  // End of stream is sticky.
  TNB_ORACLE(src.next(chunk, max_samples) == 0, "read past end of stream");
}

// ----------------------------------------------------------------- streaming

void oracle_streaming_chunk_invariance(FuzzInput& in) {
  const lora::Params p = arbitrary_params_small(in);

  // The stimulus: either a clean synthesized packet embedded in silence
  // (so segments actually decode something) or arbitrary int16-grid IQ.
  IqBuffer iq;
  if (in.boolean()) {
    std::vector<std::uint8_t> app = arbitrary_payload(in, 12);
    const auto shifts = lora::encode_frame(lora::Coding::kPaper, p, app);
    lora::Modulator mod(p);
    lora::WaveformOptions wopt;
    wopt.cfo_hz = in.real(-200.0, 200.0);
    wopt.frac_delay = in.unit() * 0.99;
    const IqBuffer pkt = mod.synthesize_shifts(shifts, wopt);
    const std::size_t lead =
        static_cast<std::size_t>(in.uniform(0, 4)) * p.sps() + p.sps();
    iq.assign(lead, cfloat{0.0f, 0.0f});
    iq.insert(iq.end(), pkt.begin(), pkt.end());
    iq.insert(iq.end(), 8 * p.sps(), cfloat{0.0f, 0.0f});
  } else {
    const std::size_t n = static_cast<std::size_t>(in.uniform(256, 6000));
    iq.resize(n);
    const float inv = 1.0f / 1024.0f;
    for (auto& v : iq) {
      v = {static_cast<std::int16_t>(in.u64(2)) * inv,
           static_cast<std::int16_t>(in.u64(2)) * inv};
    }
  }

  stream::StreamingOptions sopt;
  sopt.rng_seed = in.u64();
  sopt.max_packet_symbols = 64;
  sopt.window_symbols = static_cast<std::size_t>(in.uniform(40, 160));

  stream::StreamingReceiver one_shot(p, {}, sopt);
  one_shot.push_chunk(iq);
  one_shot.finish();

  stream::StreamingReceiver chunked(p, {}, sopt);
  std::size_t pos = 0;
  while (pos < iq.size()) {
    const std::size_t len = std::min<std::size_t>(
        static_cast<std::size_t>(in.uniform(1, 2048)), iq.size() - pos);
    chunked.push_chunk(std::span<const cfloat>(iq).subspan(pos, len));
    pos += len;
  }
  chunked.finish();

  TNB_ORACLE(one_shot.stats().samples_in == iq.size() &&
                 chunked.stats().samples_in == iq.size(),
             "streaming samples_in accounting");
  TNB_ORACLE(chunked.stats().samples_retired <= chunked.stats().samples_in,
             "retired more samples than ingested");

  const auto& a = one_shot.packets();
  const auto& b = chunked.packets();
  TNB_ORACLE(a.size() == b.size(),
             "chunking changed the number of decoded packets (" +
                 std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
                 ")");
  for (std::size_t i = 0; i < a.size(); ++i) {
    TNB_ORACLE(a[i].payload == b[i].payload, "chunking changed a payload");
    TNB_ORACLE(a[i].start_sample == b[i].start_sample,
               "chunking moved a packet start");
    TNB_ORACLE(a[i].cfo_hz == b[i].cfo_hz && a[i].snr_db == b[i].snr_db,
               "chunking changed packet estimates");
  }
}

// --------------------------------------------------------------------- fleet

namespace {

/// int16-grid IQ of n samples, the quantization every capture enters with.
IqBuffer arbitrary_iq(FuzzInput& in, std::size_t n) {
  IqBuffer iq(n);
  const float inv = 1.0f / 1024.0f;
  for (auto& v : iq) {
    v = {static_cast<std::int16_t>(in.u64(2)) * inv,
         static_cast<std::int16_t>(in.u64(2)) * inv};
  }
  return iq;
}

/// Pushes `iq` through a fresh Channelizer at fuzz-chosen chunk boundaries
/// and returns the per-channel output.
std::vector<IqBuffer> channelize_chunked(FuzzInput& in,
                                         std::span<const cfloat> iq,
                                         unsigned n_channels,
                                         std::size_t* pending = nullptr) {
  fleet::Channelizer chan(n_channels);
  std::vector<IqBuffer> out(n_channels);
  std::size_t pos = 0;
  while (pos < iq.size()) {
    const std::size_t len = std::min<std::size_t>(
        static_cast<std::size_t>(in.uniform(1, 1024)), iq.size() - pos);
    chan.push(iq.subspan(pos, len), out);
    pos += len;
  }
  if (pending != nullptr) *pending = chan.pending_samples();
  return out;
}

}  // namespace

void oracle_channelizer_roundtrip(FuzzInput& in) {
  const unsigned n_channels = 1u << in.uniform(0, 4);  // 1..16
  const std::size_t blocks = static_cast<std::size_t>(in.uniform(1, 96));
  std::vector<IqBuffer> channels(n_channels);
  for (auto& c : channels) c = arbitrary_iq(in, blocks);
  const IqBuffer wideband = fleet::mix_channels(channels, n_channels);

  // A fuzz-chosen sub-block tail must be sticky: never emitted, exactly
  // accounted in pending_samples(). (n_channels == 1 has no sub-block
  // granularity — every sample is a whole block.)
  const std::size_t tail =
      static_cast<std::size_t>(in.uniform(0, n_channels - 1));
  IqBuffer input = wideband;
  input.insert(input.end(), tail, cfloat{0.1f, -0.1f});
  std::size_t pending_a = 0;
  const auto out_a = channelize_chunked(in, input, n_channels, &pending_a);
  TNB_ORACLE(pending_a == tail, "sub-block tail not accounted in pending");

  std::size_t pending_b = 0;
  const auto out_b = channelize_chunked(in, input, n_channels, &pending_b);
  TNB_ORACLE(pending_a == pending_b, "chunking changed the pending tail");
  for (unsigned k = 0; k < n_channels; ++k) {
    TNB_ORACLE(out_a[k].size() == blocks,
               "channel output length != whole blocks");
    TNB_ORACLE(out_a[k] == out_b[k],
               "wideband chunking changed channel output");
    for (std::size_t m = 0; m < blocks; ++m) {
      TNB_ORACLE(std::abs(out_a[k][m] - channels[k][m]) < 1e-3f,
                 "analysis did not invert mix_channels");
    }
  }
}

void oracle_fleet_differential(FuzzInput& in) {
  lora::Params p = arbitrary_params_small(in);
  const unsigned n_channels = 1u << in.uniform(0, 1);  // 1 or 2
  const std::size_t n =
      static_cast<std::size_t>(in.uniform(256, 4000)) * n_channels;
  const IqBuffer wideband = arbitrary_iq(in, n);

  fleet::FleetOptions fopt;
  fopt.n_channels = n_channels;
  fopt.sfs = {p.sf};
  fopt.stream.max_packet_symbols = 64;
  fopt.stream.window_symbols = static_cast<std::size_t>(in.uniform(40, 160));
  fopt.stream.rng_seed = in.u64();

  const auto run = [&](int lanes, std::uint64_t chunk_lo) {
    fleet::FleetOptions o = fopt;
    o.lanes = lanes;
    fleet::Fleet fl(p, o);
    std::size_t pos = 0;
    while (pos < wideband.size()) {
      const std::size_t len = std::min<std::size_t>(
          static_cast<std::size_t>(in.uniform(chunk_lo, 4096)),
          wideband.size() - pos);
      fl.push_wideband(std::span<const cfloat>(wideband).subspan(pos, len));
      pos += len;
    }
    fl.finish();
    return fl.ledger();
  };

  const auto a = run(1, 1);
  const auto b = run(static_cast<int>(in.uniform(2, 3)), 16);
  TNB_ORACLE(a.size() == b.size(),
             "lane count changed the fleet packet count (" +
                 std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
                 ")");
  for (std::size_t i = 0; i < a.size(); ++i) {
    TNB_ORACLE(a[i].channel == b[i].channel && a[i].sf == b[i].sf,
               "ledger entry origin mismatch");
    TNB_ORACLE(a[i].pkt.start_sample == b[i].pkt.start_sample,
               "ledger entry start mismatch");
    TNB_ORACLE(a[i].pkt.payload == b[i].pkt.payload,
               "ledger entry payload mismatch");
  }
}

// --------------------------------------------------------------- fft backend

void oracle_fft_backend(FuzzInput& in) {
  // Arbitrary pow2 size up to 2^15 (the largest demod transform:
  // SF 12 x OSF 8) on an arbitrary registered backend.
  const unsigned log2n = static_cast<unsigned>(in.uniform(1, 15));
  const std::size_t n = std::size_t{1} << log2n;
  const auto backends = dsp::fft_backends();
  const dsp::FftBackend& be = *backends[in.uniform(0, backends.size() - 1)];
  const auto& plan = dsp::fft_plan(n);
  const IqBuffer input = arbitrary_iq(in, n);

  // Repeating the same transform on the same bytes is bit-identical:
  // backends keep no hidden state (scratch reuse must not leak between
  // calls).
  IqBuffer a = input, b = input;
  be.transform(plan, a.data(), false);
  be.transform(plan, b.data(), false);
  TNB_ORACLE(std::memcmp(a.data(), b.data(), n * sizeof(cfloat)) == 0,
             std::string(be.name()) + ": transform not deterministic");

  // forward -> inverse recovers the input. Float error compounds once per
  // butterfly stage each way; bound it in ULP of the peak input magnitude
  // (int16-grid inputs keep the dynamic range tame).
  be.transform(plan, a.data(), true);
  float peak = 1.0f;
  for (const cfloat& v : input) {
    peak = std::max({peak, std::abs(v.real()), std::abs(v.imag())});
  }
  const float tol = (64.0f + 32.0f * static_cast<float>(log2n)) * peak *
                    std::ldexp(1.0f, -23);
  for (std::size_t i = 0; i < n; ++i) {
    TNB_ORACLE(std::abs(a[i].real() - input[i].real()) <= tol &&
                   std::abs(a[i].imag() - input[i].imag()) <= tol,
               std::string(be.name()) + ": forward->inverse drifted at bin " +
                   std::to_string(i));
  }

  // transform_batch over rows cut from the same bytes == one transform
  // per row, bit for bit (cap the total at 2^15 elements to keep replay
  // fast). Rows repeat the fuzzed spectrum; the bit-identity contract
  // doesn't care.
  const std::size_t count =
      in.uniform(1, std::max<std::size_t>(1, (std::size_t{1} << 15) / n));
  IqBuffer batched(count * n), singles(count * n);
  for (std::size_t r = 0; r < count; ++r) {
    std::memcpy(batched.data() + r * n, input.data(), n * sizeof(cfloat));
  }
  std::memcpy(singles.data(), batched.data(), count * n * sizeof(cfloat));
  const bool inverse = in.boolean();
  be.transform_batch(plan, batched.data(), count, inverse);
  for (std::size_t r = 0; r < count; ++r) {
    be.transform(plan, singles.data() + r * n, inverse);
  }
  TNB_ORACLE(std::memcmp(batched.data(), singles.data(),
                         count * n * sizeof(cfloat)) == 0,
             std::string(be.name()) + ": transform_batch != per-row transform");

  // The scalar backend performs the reference loops' operations on every
  // element in the same order, so its outputs equal theirs byte for byte:
  // on the int16-grid input, and on raw float bit patterns (every
  // exponent, signed zeros, subnormals, infinities) cut cyclically from
  // the remaining bytes — or, when none remain, from the input's own byte
  // image shifted by one byte, so exponents come from mantissa bytes. Raw
  // NaNs become the FPU's default NaN, so no NaN payload can depend on
  // which operand of a commutative operation a compiler puts first.
  const std::vector<std::uint8_t> rest = in.rest();
  const auto* image_bytes = reinterpret_cast<const std::uint8_t*>(input.data());
  const std::uint8_t* raw = rest.empty() ? image_bytes + 1 : rest.data();
  const std::size_t raw_size =
      rest.empty() ? n * sizeof(cfloat) - 1 : rest.size();
  volatile float inf = std::numeric_limits<float>::infinity();
  const float default_nan = inf - inf;
  IqBuffer bits(n);
  float* f = reinterpret_cast<float*>(bits.data());
  for (std::size_t i = 0; i < 2 * n; ++i) {
    std::uint32_t u = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      u |= static_cast<std::uint32_t>(raw[(4 * i + b) % raw_size]) << (8 * b);
    }
    std::memcpy(&f[i], &u, sizeof u);
    if (std::isnan(f[i])) f[i] = default_nan;
  }

  const dsp::FftBackend& scalar = dsp::fft_backend_scalar();
  auto same = [](const void* x, const void* y, std::size_t bytes) {
    return std::memcmp(x, y, bytes) == 0;
  };
  const IqBuffer* sources[] = {&input, &bits};
  for (const IqBuffer* src : sources) {
    for (const bool inv : {false, true}) {
      IqBuffer ref = *src, out = *src;
      reference_transform(plan, ref.data(), inv);
      scalar.transform(plan, out.data(), inv);
      TNB_ORACLE(same(ref.data(), out.data(), n * sizeof(cfloat)),
                 "scalar transform != reference loop (n=" + std::to_string(n) +
                     (inv ? ", inverse)" : ", forward)"));
    }
  }

  // The elementwise kernels on three distinct operands: the raw patterns,
  // the grid input, and the raw patterns rotated by one element.
  IqBuffer rotated(n);
  std::rotate_copy(bits.begin(), bits.begin() + 1, bits.end(), rotated.begin());
  IqBuffer ref_dc(n), dc(n);
  reference_dechirp_rotate(bits.data(), n, input.data(), rotated.data(),
                           ref_dc.data());
  scalar.dechirp_rotate(bits.data(), n, input.data(), rotated.data(),
                        dc.data());
  TNB_ORACLE(same(ref_dc.data(), dc.data(), n * sizeof(cfloat)),
             "scalar dechirp_rotate != reference loop");
  const std::size_t half = n / 2;
  for (const std::size_t image : {std::size_t{0}, half}) {
    std::vector<float> ref_mag(half), mag(half);
    reference_mag_fold(bits.data(), half, image, ref_mag.data());
    scalar.mag_fold(bits.data(), half, image, mag.data());
    TNB_ORACLE(same(ref_mag.data(), mag.data(), half * sizeof(float)),
               "scalar mag_fold != reference loop (image=" +
                   std::to_string(image) + ")");
  }
  IqBuffer ref_acc = input, acc = input;
  reference_rotate_accumulate(bits.data(), n, rotated[0], ref_acc.data());
  scalar.rotate_accumulate(bits.data(), n, rotated[0], acc.data());
  TNB_ORACLE(same(ref_acc.data(), acc.data(), n * sizeof(cfloat)),
             "scalar rotate_accumulate != reference loop");
}

// ---------------------------------------------------------- impair / traffic

void oracle_impairment_totality(FuzzInput& in) {
  lora::Params p;
  p.sf = static_cast<unsigned>(in.uniform(5, 8));
  p.cr = static_cast<unsigned>(in.uniform(1, 4));
  p.osf = static_cast<unsigned>(in.uniform(1, 2));
  p.ldro = in.boolean() && p.sf >= 8;  // LDRO is only valid at SF >= 8

  sim::TraceOptions opt;
  // At least ~1.5 packet airtimes, so the build_trace "trace shorter than
  // one packet" precondition holds for every drawn (SF, osf, LDRO).
  const std::size_t pkt_samples = lora::Modulator(p).packet_samples(
      lora::frame_symbols(lora::Coding::kPaper, p, opt.app_payload_bytes));
  const double min_duration =
      1.5 * static_cast<double>(pkt_samples) / p.sample_rate_hz();
  opt.duration_s = std::max(in.real(0.05, 0.25), min_duration);
  opt.load_pps = in.real(0.0, 30.0);
  opt.n_antennas = static_cast<unsigned>(in.uniform(1, 2));
  opt.implicit_header = in.boolean();
  const std::size_t n_nodes = in.uniform(1, 4);
  for (std::size_t k = 0; k < n_nodes; ++k) {
    sim::NodeConfig node;
    node.id = static_cast<std::uint16_t>(k + 1);
    node.snr_db = in.real(-5.0, 20.0);
    node.cfo_hz = in.real(-sim::kMaxCfoHz, sim::kMaxCfoHz);
    opt.nodes.push_back(node);
  }

  const std::size_t n_stages = in.uniform(0, 4);
  for (std::size_t k = 0; k < n_stages; ++k) {
    impair::ImpairmentConfig cfg;
    switch (in.uniform(0, 5)) {
      case 0:
        cfg.kind = impair::Kind::kPhaseNoise;
        cfg.linewidth_hz = in.real(0.0, 1e5);
        break;
      case 1:
        cfg.kind = impair::Kind::kIqImbalance;
        cfg.gain_db = in.real(-6.0, 6.0);
        cfg.phase_deg = in.real(-45.0, 45.0);
        break;
      case 2:
        cfg.kind = impair::Kind::kQuantize;
        cfg.bits = static_cast<unsigned>(in.uniform(0, 16));
        cfg.full_scale = in.real(0.1, 64.0);
        break;
      case 3:
        cfg.kind = impair::Kind::kClockDrift;
        cfg.ppm = in.real(-500.0, 500.0);
        break;
      case 4:
        cfg.kind = impair::Kind::kInterSf;
        cfg.sf = static_cast<unsigned>(in.uniform(5, 12));
        cfg.pps = in.real(0.0, 50.0);
        cfg.snr_db = in.real(-10.0, 20.0);
        break;
      default:
        cfg.kind = impair::Kind::kDoppler;
        cfg.doppler_hz = in.real(-5e3, 5e3);
        cfg.period_s = in.real(0.1, 20.0);
        break;
    }
    opt.impairments.push_back(cfg);
  }
  if (in.boolean()) {
    sim::TrafficModel tm;
    tm.arrivals = static_cast<sim::Arrivals>(in.uniform(0, 2));
    tm.duty_cycle = in.boolean() ? in.real(0.0, 1.0) : 0.0;
    if (in.boolean()) {
      tm.sf_weights = {{p.sf, in.real(0.1, 1.0)},
                       {static_cast<unsigned>(in.uniform(5, 12)),
                        in.real(0.0, 1.0)}};
    }
    opt.traffic = tm;
  }
  const std::uint64_t seed = in.u64();

  const auto build = [&] {
    Rng rng(seed);
    return sim::build_trace(p, opt, rng);
  };
  const sim::Trace a = build();
  TNB_ORACLE(!a.iq.empty(), "empty trace");
  TNB_ORACLE(a.extra_antennas.size() + 1 == opt.n_antennas ||
                 (opt.n_antennas == 1 && a.extra_antennas.empty()),
             "antenna count mismatch");
  const auto check_finite = [](const IqBuffer& buf) {
    for (const cfloat& v : buf) {
      TNB_ORACLE(std::isfinite(v.real()) && std::isfinite(v.imag()),
                 "non-finite sample in built trace");
    }
  };
  check_finite(a.iq);
  for (const IqBuffer& ant : a.extra_antennas) {
    TNB_ORACLE(ant.size() == a.iq.size(), "antenna length mismatch");
    check_finite(ant);
  }
  for (const sim::TxPacketRecord& rec : a.packets) {
    TNB_ORACLE(rec.start_sample >= 0.0 &&
                   rec.start_sample + static_cast<double>(rec.n_samples) <=
                       static_cast<double>(a.iq.size()) + 1.0,
               "ground-truth record outside the trace");
  }

  const sim::Trace b = build();
  TNB_ORACLE(a.iq == b.iq && a.extra_antennas == b.extra_antennas,
             "same-seed rebuild not bit-identical");
  TNB_ORACLE(a.packets.size() == b.packets.size() &&
                 a.n_foreign == b.n_foreign &&
                 a.duty_dropped == b.duty_dropped,
             "same-seed rebuild ground truth mismatch");
}

// ----------------------------------------------------------------- baselines

void oracle_baseline_receiver_totality(FuzzInput& in) {
  const lora::Params p = arbitrary_params_small(in);
  static constexpr base::Scheme kSchemes[] = {
      base::Scheme::kCoRa, base::Scheme::kCoRaBec, base::Scheme::kCoRaTnB,
      base::Scheme::kLZnThrive};
  const base::Scheme scheme = kSchemes[in.uniform(0, 3)];
  const std::size_t n = static_cast<std::size_t>(in.uniform(0, 24)) * p.sps();
  const IqBuffer iq = arbitrary_iq(in, n);
  const std::uint64_t seed = in.u64();

  const auto run = [&] {
    rx::Receiver r = base::make_receiver(scheme, p);
    Rng rng(seed);
    return r.decode(iq, rng);
  };
  const auto a = run();
  for (const auto& pkt : a) {
    TNB_ORACLE(std::isfinite(pkt.start_sample) && std::isfinite(pkt.cfo_hz),
               "decoded packet with non-finite fields");
    TNB_ORACLE(pkt.payload.size() <= 255, "payload beyond the on-air limit");
  }
  const auto b = run();
  TNB_ORACLE(a.size() == b.size(),
             "baseline decode not deterministic (packet count)");
  for (std::size_t i = 0; i < a.size(); ++i) {
    TNB_ORACLE(a[i].payload == b[i].payload &&
                   a[i].start_sample == b[i].start_sample,
               "baseline decode not deterministic (packet content)");
  }
}

void oracle_lzn_sync_totality(FuzzInput& in) {
  const lora::Params p = arbitrary_params_small(in);
  const std::size_t n = static_cast<std::size_t>(in.uniform(0, 30)) * p.sps();
  const IqBuffer iq = arbitrary_iq(in, n);

  base::LZnSync sync(p);
  const auto a = sync.sync(iq);
  for (const auto& d : a) {
    TNB_ORACLE(std::isfinite(d.t0) && std::isfinite(d.cfo_cycles),
               "detection with non-finite timing/CFO");
    TNB_ORACLE(d.t0 > -static_cast<double>(p.sps()) &&
                   d.t0 < static_cast<double>(iq.size()),
               "detection outside the trace");
    TNB_ORACLE(d.validation_score >= 8 && d.validation_score <= 12,
               "validation score out of contract");
  }
  const auto b = sync.sync(iq);
  TNB_ORACLE(a.size() == b.size(), "sync not deterministic (count)");
  for (std::size_t i = 0; i < a.size(); ++i) {
    TNB_ORACLE(a[i].t0 == b[i].t0 && a[i].cfo_cycles == b[i].cfo_cycles,
               "sync not deterministic (detection)");
  }
}

void oracle_wire_primitives_roundtrip(FuzzInput& in) {
  const lora::CodingTable& wire = lora::coding_table(lora::Coding::kWire);
  // Whitening is an involution on arbitrary bytes.
  std::vector<std::uint8_t> data =
      in.bytes(static_cast<std::size_t>(in.uniform(0, 96)));
  const std::vector<std::uint8_t> orig = data;
  wire.whiten(data);
  wire.whiten(data);
  TNB_ORACLE(data == orig, "wire whitening not an involution");

  // Codeword -> data extraction / nearest decode == identity, and
  // single-bit errors are corrected where d_min >= 3 (CR 3-4).
  const unsigned cr = static_cast<unsigned>(in.uniform(1, 4));
  const std::uint8_t nib = static_cast<std::uint8_t>(in.u8() & 0x0F);
  const lora::Codebook& book = lora::codebook(cr, lora::Coding::kWire);
  const std::uint8_t cw = book[nib];
  TNB_ORACLE(lora::codeword_data(wire, cw, cr) == nib,
             "data nibble of a wire codeword");
  TNB_ORACLE(lora::nearest_codeword(cw, book).data == nib,
             "wire nearest-codeword decode clean");
  if (cr >= 3) {
    const unsigned bit = static_cast<unsigned>(in.uniform(0, 4 + cr - 1));
    const auto fixed =
        lora::nearest_codeword(static_cast<std::uint8_t>(cw ^ (1u << bit)), book);
    TNB_ORACLE(fixed.data == nib, "single-bit error not corrected");
  }

  // Diagonal interleaver is a bijection for every supported geometry.
  const unsigned sf_app = static_cast<unsigned>(in.uniform(5, 12));
  const unsigned cwl = 4 + cr;
  std::vector<std::uint8_t> rows(sf_app);
  for (auto& r : rows) {
    r = static_cast<std::uint8_t>(in.u8() & ((1u << cwl) - 1u));
  }
  const auto symbols = lora::interleave_block(rows, cr, wire.msb_first);
  TNB_ORACLE(lora::deinterleave_block(symbols, sf_app, cr, wire.msb_first) ==
                 rows,
             "wire interleaver round trip");

  // Gray +1 shift mapping: symbol -> shift -> symbol == identity; the
  // reduced-rate truncation absorbs +1 and +2 bin offsets.
  const unsigned sf = static_cast<unsigned>(in.uniform(5, 12));
  const std::uint32_t n = 1u << sf;
  const std::uint32_t v = static_cast<std::uint32_t>(in.u64(4)) & (n - 1u);
  TNB_ORACLE(lora::value_for_bin(wire, sf,
                                 lora::shift_for_value(wire, sf, v, false),
                                 false) == v,
             "wire gray round trip");
  if (sf >= 7) {
    const std::uint32_t vr = v & ((n >> 2) - 1u);
    const std::uint32_t shift = lora::shift_for_value(wire, sf, vr, true);
    const std::uint32_t off = static_cast<std::uint32_t>(in.uniform(0, 2));
    TNB_ORACLE(lora::value_for_bin(wire, sf, (shift + off) & (n - 1u), true) ==
                   vr,
               "reduced-rate gray round trip");
  }

  // Header serialize/parse fixpoint for in-contract fields (a length whose
  // CRC16 would overflow the one-byte on-air length is out of contract).
  const unsigned len = static_cast<unsigned>(in.uniform(1, 255));
  lora::Header h;
  h.cr = static_cast<std::uint8_t>(in.uniform(1, 4));
  h.has_crc = in.boolean();
  if (len + (h.has_crc ? 2u : 0u) > 255) return;
  h.payload_len = static_cast<std::uint8_t>(len + (h.has_crc ? 2u : 0u));
  const auto parsed = wire.parse_header(wire.header_nibbles(h));
  TNB_ORACLE(parsed.has_value() && *parsed == h,
             "wire header not a serialize/parse fixpoint");
}

namespace {

/// Fuzz-chosen codec configuration (valid by construction); the frame
/// format is drawn last, so an exhausted input selects the wire format.
rx::CodecConfig arbitrary_codec_config(FuzzInput& in, std::size_t app_len) {
  rx::CodecConfig cfg;
  cfg.params.sf = static_cast<unsigned>(in.uniform(5, 12));
  cfg.params.cr = static_cast<unsigned>(in.uniform(1, 4));
  cfg.params.ldro = cfg.params.sf >= 8 && in.boolean();
  cfg.params.osf = 1;
  cfg.use_bec = in.boolean();
  if (in.boolean()) {
    cfg.implicit_header =
        rx::ImplicitHeader{static_cast<std::uint8_t>(app_len + 2),
                           static_cast<std::uint8_t>(cfg.params.cr)};
  }
  cfg.coding = in.boolean() ? lora::Coding::kPaper : lora::Coding::kWire;
  return cfg;
}

}  // namespace

void oracle_codec_roundtrip(FuzzInput& in) {
  const std::size_t app_len = static_cast<std::size_t>(in.uniform(1, 48));
  const rx::CodecConfig cfg = arbitrary_codec_config(in, app_len);
  const rx::FrameCodec codec(cfg);
  std::vector<std::uint8_t> app = in.bytes(app_len);
  app.resize(app_len, 0);

  const auto shifts = codec.encode_shifts(app);
  TNB_ORACLE(shifts.size() == codec.frame_symbols(app.size()),
             "encode_shifts size != frame_symbols");
  const std::uint32_t n_bins = 1u << cfg.params.sf;
  for (std::uint32_t s : shifts) {
    TNB_ORACLE(s < n_bins, "shift out of bin range");
  }

  lora::Header h;
  if (cfg.implicit_header.has_value()) {
    const auto ih = codec.implicit_header();
    TNB_ORACLE(ih.has_value(), "implicit config without implicit_header()");
    h = *ih;
  } else {
    const auto hdr = codec.decode_header(
        std::span<const std::uint32_t>(shifts).first(8), nullptr);
    TNB_ORACLE(hdr.has_value(), "clean header failed to decode");
    TNB_ORACLE(hdr->payload_len == app.size() + 2, "header length");
    h = *hdr;
  }
  TNB_ORACLE(codec.header_symbols() + codec.payload_symbols(h) == shifts.size(),
             "frame symbol accounting");

  Rng rng(in.u64(4));
  const auto r = codec.decode_frame(shifts, h, rng, nullptr);
  TNB_ORACLE(r.ok, "clean frame failed to decode");
  TNB_ORACLE(r.payload == app, "codec round trip");
}

void oracle_codec_totality(FuzzInput& in) {
  const std::size_t app_len = static_cast<std::size_t>(in.uniform(1, 32));
  const rx::CodecConfig cfg = arbitrary_codec_config(in, app_len);
  const rx::FrameCodec codec(cfg);
  const std::uint32_t n_bins = 1u << cfg.params.sf;

  lora::Header h;
  if (const auto ih = codec.implicit_header(); ih.has_value()) {
    h = *ih;
  } else {
    h.payload_len = static_cast<std::uint8_t>(app_len + 2);
    h.cr = static_cast<std::uint8_t>(cfg.params.cr);
    h.has_crc = true;
  }
  const std::size_t n_syms = codec.header_symbols() + codec.payload_symbols(h);
  std::vector<std::uint32_t> bins(n_syms);
  for (auto& b : bins) {
    b = static_cast<std::uint32_t>(in.u64(4)) & (n_bins - 1u);
  }
  Rng rng(in.u64(4));
  // A span cut short anywhere (a packet running off the trace end) must
  // decode to nothing rather than read past it.
  const bool cut = in.boolean();
  if (cut) bins.resize(static_cast<std::size_t>(in.uniform(0, n_syms - 1)));

  // Arbitrary bins: decode_header may reject, decode_frame may fail, but
  // neither may crash, and an accepted frame has a consistent payload.
  if (!cfg.implicit_header.has_value()) {
    const std::span<const std::uint32_t> head(
        bins.data(), std::min<std::size_t>(bins.size(), 8));
    (void)codec.decode_header(head, nullptr);
    (void)codec.peek_frame_symbols(head);
  }
  const auto r = codec.decode_frame(bins, h, rng, nullptr);
  TNB_ORACLE(!cut || !r.ok, "a frame cut short decoded");
  if (r.ok) {
    TNB_ORACLE(r.payload.size() == h.payload_len - 2u, "accepted frame length");
  }
}

}  // namespace tnb::testing
