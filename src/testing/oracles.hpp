// Round-trip oracles for the decode pipeline (DESIGN.md "Correctness
// tooling").
//
// Each oracle consumes a FuzzInput, derives a structured case from it, and
// checks an invariant the coding chain / parser stack promises
// mechanically — the invertible-contract view of the gray/whitening/
// interleave/Hamming/CRC chain that receivers like the EPFL multi-user
// GNU Radio decoder rely on. A violation throws OracleFailure (which a
// fuzzing engine or the replay driver turns into a crash with the
// offending input); genuine memory errors are left to ASan/UBSan.
//
// Two kinds of oracle coexist:
//   * totality — arbitrary bytes through a parser must never crash, leak,
//     or overflow, only return a value or throw the documented
//     std::runtime_error (header nibbles, int16 trace bytes, Prometheus
//     text);
//   * round-trip — decode(impair(encode(x))) must be x or a reported
//     failure whenever the impairment is within the documented correction
//     capability, and decode(encode(x)) == x always.
//
// The oracles deliberately avoid asserting facts that hold only with high
// probability under *random* inputs (e.g. "no 16-bit CRC collision"), so
// the same binary is sound both as a libFuzzer target and as the
// deterministic corpus-replay ctest. Probabilistic-but-pinned variants
// live in tests/ (test_bec.cpp BecFalseAccept) where the seed is fixed.
#pragma once

#include <stdexcept>
#include <string>

#include "testing/fuzz_input.hpp"

namespace tnb::testing {

/// An oracle property was violated (a real correctness finding, as opposed
/// to a rejected malformed input).
struct OracleFailure : std::logic_error {
  using std::logic_error::logic_error;
};

[[noreturn]] void oracle_fail(const char* file, int line,
                              const std::string& msg);

#define TNB_ORACLE(cond, msg)                                  \
  do {                                                         \
    if (!(cond)) ::tnb::testing::oracle_fail(__FILE__, __LINE__, msg); \
  } while (0)

// ---- coding chain (lora::gray / whitening / interleaver / hamming / crc) --
/// Involutions and bijections of the primitive stages on arbitrary data.
void oracle_primitives_roundtrip(FuzzInput& in);
/// Full chain: make_packet_symbols -> default decode == identity, BEC
/// decode == identity, for an arbitrary valid (SF, CR, LDRO) and payload.
void oracle_coding_chain_roundtrip(FuzzInput& in);
/// Arbitrary symbol corruption: decoders never crash; anything they accept
/// passed its integrity gate (header checksum / payload CRC).
void oracle_coding_chain_corrupted(FuzzInput& in);

// ---- lora::header ----
/// Serialize/parse identity at every SF, through nibbles, symbols, default
/// decode and BEC; single-symbol corruption still yields the true header.
void oracle_header_roundtrip(FuzzInput& in);
/// header_from_nibbles on arbitrary bytes: total, and any accepted header
/// is a serialize/parse fixpoint.
void oracle_header_parse_total(FuzzInput& in);

// ---- core::Bec ----
/// decode_block on an arbitrary in-contract block: candidates are valid
/// codeword blocks, deduplicated, led by the default-decoder block.
void oracle_bec_arbitrary_block(FuzzInput& in);
/// Any corruption within the documented capability (1 column at every CR,
/// 2 columns at CR 4) must put the original block among the candidates.
void oracle_bec_correctable(FuzzInput& in);
/// Packet level: one corrupted symbol per block decodes ok, and whatever
/// decode_payload_bec accepts carries a valid packet CRC — the gate never
/// reports ok on a payload that fails it.
void oracle_bec_packet(FuzzInput& in);

// ---- sim::trace_io ----
/// Arbitrary bytes through read_trace_i16_chunk: total; sample count and
/// truncation status exactly reflect the byte count; values match a
/// reference little-endian int16 decode.
void oracle_trace_chunk_arbitrary(FuzzInput& in);
/// int16-grid samples serialize -> chunked read == identity for any chunk
/// size; byte_offset lands on the exact byte count.
void oracle_trace_roundtrip(FuzzInput& in);
/// stream::IstreamSource over a torn stream: partial chunk + status, then
/// a clean end of stream — never an exception for a mid-pair tail.
void oracle_chunk_source_truncation(FuzzInput& in);

// ---- stream::StreamingReceiver ----
/// Chunked ingestion of arbitrary IQ at fuzz-chosen chunk boundaries
/// decodes the same packet set as one-shot ingestion, with consistent
/// sample accounting, and never crashes.
void oracle_streaming_chunk_invariance(FuzzInput& in);

// ---- fleet::Channelizer / fleet::Fleet ----
/// The analysis inverts mix_channels to float rounding, the output is
/// bit-identical for any two wideband chunkings, and a sub-block tail is
/// sticky: counted in pending_samples(), never emitted (the IstreamSource
/// torn-pair semantics one level up).
void oracle_channelizer_roundtrip(FuzzInput& in);
/// Fleet differential: a multi-lane fleet over arbitrary wideband IQ
/// produces exactly the ledger of a single-lane fleet fed the same stream
/// at different chunk boundaries — entry for entry, after finalize.
void oracle_fleet_differential(FuzzInput& in);

// ---- rx::FrameCodec (both frame formats) ----
/// Wire-format table invariants on arbitrary data: whitening involution,
/// codeword data / nearest decode identity plus single-error correction at
/// CR >= 3, MSB-first diagonal interleaver bijection, Gray +1 shift mapping
/// identity (with the reduced-rate +1/+2 absorption), header
/// serialize/parse fixpoint.
void oracle_wire_primitives_roundtrip(FuzzInput& in);
/// Full frame: encode_shifts -> decode_header/decode_frame == identity for
/// an arbitrary frame format, valid (SF, CR, LDRO, explicit/implicit) and
/// payload.
void oracle_codec_roundtrip(FuzzInput& in);
/// Codec decode on arbitrary bins of either format, the span possibly cut
/// short of the frame: total — never crashes — a cut span never decodes,
/// and an accepted frame reports exactly the application payload length.
/// (CRC acceptance on random bins is probabilistic, so the oracle does not
/// assert rejection; the pinned-seed variant lives in test_wire.)
void oracle_codec_totality(FuzzInput& in);

// ---- dsp::FftBackend ----
/// Every registered backend on an arbitrary pow2 size (2 .. 2^15) and
/// arbitrary int16-grid spectrum: forward -> inverse recovers the input
/// within a stage-scaled float bound, transform_batch is bit-identical to
/// the same transforms run one row at a time, and repeating a transform
/// on identical input is bit-identical (no hidden state). The scalar
/// backend's transforms and elementwise kernels equal the reference loops
/// (reference_fft.hpp) byte for byte, on that spectrum and on raw float
/// bit patterns cut from the remaining bytes.
void oracle_fft_backend(FuzzInput& in);

// ---- impair::Pipeline / sim traffic models ----
/// An arbitrary impairment chain (0..4 stages, severities across the full
/// validated range) plus an optional traffic model keeps sim::build_trace
/// total: every sample of every antenna is finite, all antennas have the
/// trace length, every ground-truth record lies inside the trace, and
/// rebuilding from the same seed is bit-identical (no hidden state across
/// packets or stages).
void oracle_impairment_totality(FuzzInput& in);

// ---- base::CoRaDetector / base::LZnSync (the baseline peers) ----
/// Arbitrary IQ through a fuzz-chosen baseline receiver (CoRa, CoRa+,
/// CoRa-TnB, LZn-Thrive): total — never crashes — deterministic for a
/// fixed Rng seed, and every reported packet has finite fields and an
/// in-air-limit payload.
void oracle_baseline_receiver_totality(FuzzInput& in);
/// LZnSync::sync on arbitrary IQ: total, every detection finite and
/// in-bounds with a score that meets LZnSync's gate (8 of 12), and the
/// detection list identical across repeated calls.
void oracle_lzn_sync_totality(FuzzInput& in);

}  // namespace tnb::testing
