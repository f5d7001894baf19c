// Chunked IQ sources feeding the streaming gateway pipeline.
//
// A ChunkSource hands out bounded chunks of baseband samples so the
// consumer never has to hold a whole capture: any std::istream (tnb_streamd
// reads stdin and --in files this way) and an in-process buffer source for
// tests and examples. The int16 source uses the paper artifact's
// interleaved I/Q trace format via sim::read_trace_i16_chunk.
#pragma once

#include <cstdint>
#include <istream>
#include <span>

#include "common/types.hpp"

namespace tnb::stream {

class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Fills `out` (replacing its contents) with up to `max_samples` IQ
  /// samples. Returns out.size(); 0 means end of stream.
  virtual std::size_t next(IqBuffer& out, std::size_t max_samples) = 0;
};

/// In-process source over a caller-owned buffer (tests, synthetic traces).
class BufferSource final : public ChunkSource {
 public:
  explicit BufferSource(std::span<const cfloat> samples) : samples_(samples) {}

  std::size_t next(IqBuffer& out, std::size_t max_samples) override;

 private:
  std::span<const cfloat> samples_;
  std::size_t pos_ = 0;
};

/// int16-interleaved IQ from an already open stream (stdin, a file).
///
/// Short reads and a stream torn mid IQ pair (a producer killed between
/// the I and Q halves of a sample) are not fatal: next() delivers the
/// complete samples before the tear, records the condition, and ends the
/// stream — every further next() returns 0. The gateway then decodes
/// everything that arrived instead of aborting; callers that must treat a
/// torn tail as an error check truncated_tail() at end of stream.
class IstreamSource final : public ChunkSource {
 public:
  explicit IstreamSource(std::istream& in, double scale = 1024.0)
      : in_(&in), scale_(scale) {}

  std::size_t next(IqBuffer& out, std::size_t max_samples) override;

  /// Bytes consumed so far, dangling tail bytes included.
  std::uint64_t byte_offset() const { return byte_offset_; }

  /// True once the stream ended in the middle of an IQ pair; the dangling
  /// bytes were dropped and the stream is treated as finished.
  bool truncated_tail() const { return truncated_; }

 private:
  std::istream* in_;
  double scale_;
  std::uint64_t byte_offset_ = 0;
  bool truncated_ = false;
};

}  // namespace tnb::stream
