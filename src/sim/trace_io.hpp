// Trace file I/O in the paper artifact's format.
//
// The published TnB traces are raw interleaved 16-bit integers: I, Q, I, Q,
// ... sampled at OSF x BW (1 Msps in the paper). These helpers read and
// write that format so synthetic traces can be exported and real USRP
// captures decoded. read_trace_i16_chunk is the incremental variant used by
// the streaming source (stream::IstreamSource, stdin or a file): it pulls
// a bounded number of samples per call and copes with the partial reads a
// pipe delivers.
#pragma once

#include <cstdint>
#include <istream>
#include <string>

#include "common/types.hpp"

namespace tnb::sim {

/// Writes IQ as interleaved int16 little-endian pairs. `scale` maps float
/// amplitude 1.0 to this integer value (clipped to int16 range).
/// Throws std::runtime_error on I/O failure.
void write_trace_i16(const std::string& path, const IqBuffer& iq,
                     double scale = 1024.0);

/// Reads an interleaved int16 trace; the inverse of write_trace_i16 with
/// the same scale. Throws std::runtime_error on I/O failure, if the file
/// size is not a whole number of IQ pairs (a truncated or foreign capture),
/// or on a short read — the error message reports the byte offset reached.
IqBuffer read_trace_i16(const std::string& path, double scale = 1024.0);

/// Incremental read: appends up to `max_samples` IQ samples from an already
/// open int16 stream into `out` (replacing its contents). Returns
/// out.size(); 0 means a clean end of stream. Short reads from pipes are
/// retried until EOF, so the only partial result is the stream's tail.
/// Internal allocation is bounded regardless of `max_samples` (the stream
/// is read in fixed-size slices), so a hostile length cannot force a
/// multi-GiB buffer. Throws std::runtime_error on I/O errors;
/// `byte_offset`, when given, is advanced by the bytes consumed (dangling
/// tail bytes included) and used to report the failure position.
///
/// A stream ending in the middle of an IQ pair (a truncated capture, a
/// producer killed mid-sample) is handled two ways: with `truncated_tail`
/// non-null, the complete samples before the tear are returned, the flag
/// is set, and no exception is thrown — the caller decides whether a torn
/// tail is fatal. With it null, the mid-pair end throws (legacy contract).
std::size_t read_trace_i16_chunk(std::istream& in, IqBuffer& out,
                                 std::size_t max_samples,
                                 double scale = 1024.0,
                                 std::uint64_t* byte_offset = nullptr,
                                 bool* truncated_tail = nullptr);

}  // namespace tnb::sim
