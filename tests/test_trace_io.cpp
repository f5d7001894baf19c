#include "sim/trace_io.hpp"

#include "stream/chunk_source.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "common/rng.hpp"

namespace tnb::sim {
namespace {

TEST(TraceIo, RoundTripPreservesSamples) {
  Rng rng(1);
  IqBuffer iq(1000);
  for (auto& v : iq) v = rng.complex_normal();
  const std::string path = ::testing::TempDir() + "tnb_roundtrip.bin";
  write_trace_i16(path, iq, 4096.0);
  const IqBuffer back = read_trace_i16(path, 4096.0);
  ASSERT_EQ(back.size(), iq.size());
  for (std::size_t i = 0; i < iq.size(); ++i) {
    EXPECT_NEAR(back[i].real(), iq[i].real(), 1.0f / 4096.0f);
    EXPECT_NEAR(back[i].imag(), iq[i].imag(), 1.0f / 4096.0f);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, ClipsOutOfRangeValues) {
  IqBuffer iq{{100.0f, -100.0f}};
  const std::string path = ::testing::TempDir() + "tnb_clip.bin";
  write_trace_i16(path, iq, 1024.0);
  const IqBuffer back = read_trace_i16(path, 1024.0);
  EXPECT_NEAR(back[0].real(), 32767.0f / 1024.0f, 1e-3f);
  EXPECT_NEAR(back[0].imag(), -32768.0f / 1024.0f, 1e-3f);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_i16("/nonexistent/nope.bin"), std::runtime_error);
  IqBuffer iq(4);
  EXPECT_THROW(write_trace_i16("/nonexistent/nope.bin", iq), std::runtime_error);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  IqBuffer iq;
  const std::string path = ::testing::TempDir() + "tnb_empty.bin";
  write_trace_i16(path, iq);
  EXPECT_TRUE(read_trace_i16(path).empty());
  std::remove(path.c_str());
}

TEST(TraceIo, OddLengthFileThrows) {
  // 6 bytes = 1.5 IQ pairs: a truncated or foreign capture, not a trace.
  const std::string path = ::testing::TempDir() + "tnb_odd.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f.write("\0\1\2\3\4\5", 6);
  }
  EXPECT_THROW(
      {
        try {
          read_trace_i16(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("IQ pair"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, ChunkReaderMatchesWholeFileRead) {
  Rng rng(5);
  IqBuffer iq(777);
  for (auto& v : iq) v = rng.complex_normal();
  const std::string path = ::testing::TempDir() + "tnb_chunked.bin";
  write_trace_i16(path, iq, 2048.0);
  const IqBuffer whole = read_trace_i16(path, 2048.0);

  // Chunk sizes that do and do not divide the trace length.
  for (const std::size_t chunk :
       std::initializer_list<std::size_t>{1, 7, 256, 1000}) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    IqBuffer assembled, piece;
    std::uint64_t offset = 0;
    while (read_trace_i16_chunk(in, piece, chunk, 2048.0, &offset) > 0) {
      EXPECT_LE(piece.size(), chunk);
      assembled.insert(assembled.end(), piece.begin(), piece.end());
    }
    EXPECT_EQ(offset, whole.size() * 4);
    ASSERT_EQ(assembled.size(), whole.size());
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(assembled[i], whole[i]);
    }
    // At EOF, further reads keep returning 0.
    EXPECT_EQ(read_trace_i16_chunk(in, piece, chunk, 2048.0), 0u);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, ChunkReaderReportsMidPairEofOffset) {
  // 10 bytes = 2 whole samples + half an IQ pair.
  std::stringstream s;
  s.write("\0\1\2\3\4\5\6\7\10\11", 10);
  IqBuffer out;
  std::uint64_t offset = 0;
  EXPECT_THROW(
      {
        try {
          read_trace_i16_chunk(s, out, 1024, 1024.0, &offset);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("byte offset"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST(TraceIo, ChunkReaderTruncatedTailFlagInsteadOfThrow) {
  // Same torn stream as above, but with the caller opting into the
  // partial-chunk contract: complete samples are delivered, the flag is
  // set, nothing throws.
  std::stringstream s;
  s.write("\0\1\2\3\4\5\6\7\10\11", 10);
  IqBuffer out;
  std::uint64_t offset = 0;
  bool truncated = false;
  const std::size_t got =
      read_trace_i16_chunk(s, out, 1024, 1024.0, &offset, &truncated);
  EXPECT_EQ(got, 2u);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(offset, 10u);  // dangling bytes are accounted for
  // The stream is exhausted: further reads return 0 and keep the flag off.
  truncated = false;
  EXPECT_EQ(read_trace_i16_chunk(s, out, 1024, 1024.0, &offset, &truncated),
            0u);
  EXPECT_FALSE(truncated);
}

TEST(TraceIo, ChunkReaderTruncatedTailOnCleanStreamStaysFalse) {
  std::stringstream s;
  s.write("\0\1\2\3", 4);
  IqBuffer out;
  bool truncated = true;
  EXPECT_EQ(read_trace_i16_chunk(s, out, 8, 1024.0, nullptr, &truncated), 1u);
  EXPECT_FALSE(truncated);
}

TEST(TraceIo, WriteClipsNanToZero) {
  // A NaN sample must serialize as 0, not feed NaN into the int16 cast
  // (undefined behaviour).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  IqBuffer iq{{nan, 0.5f}, {-0.5f, nan}};
  const std::string path = ::testing::TempDir() + "tnb_nan.bin";
  write_trace_i16(path, iq, 1024.0);
  const IqBuffer back = read_trace_i16(path, 1024.0);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].real(), 0.0f);
  EXPECT_NEAR(back[0].imag(), 0.5f, 1e-3f);
  EXPECT_NEAR(back[1].real(), -0.5f, 1e-3f);
  EXPECT_EQ(back[1].imag(), 0.0f);
  std::remove(path.c_str());
}

TEST(ChunkSourceHardening, IstreamSourceDeliversPartialChunkOnTornStream) {
  // 13 bytes = 3 whole samples + 1 dangling byte. The source must hand
  // over the 3 samples with a truncation status instead of throwing —
  // tnb_streamd reads arbitrary pipes and a torn tail is an operational
  // event, not a programming error.
  std::istringstream s(std::string("\0\1\2\3\4\5\6\7\10\11\12\13\14", 13));
  stream::IstreamSource src(s);
  IqBuffer chunk;
  std::size_t total = 0;
  std::size_t n;
  while ((n = src.next(chunk, 2)) > 0) total += n;
  EXPECT_EQ(total, 3u);
  EXPECT_TRUE(src.truncated_tail());
  EXPECT_EQ(src.byte_offset(), 13u);
  // End of stream is sticky: every further next() is an empty read.
  EXPECT_EQ(src.next(chunk, 2), 0u);
  EXPECT_TRUE(chunk.empty());
}

TEST(ChunkSourceHardening, IstreamSourceCleanStreamHasNoTruncation) {
  std::istringstream s(std::string("\0\1\2\3\4\5\6\7", 8));
  stream::IstreamSource src(s);
  IqBuffer chunk;
  std::size_t total = 0;
  while (src.next(chunk, 64) > 0) total += chunk.size();
  EXPECT_EQ(total, 2u);
  EXPECT_FALSE(src.truncated_tail());
  EXPECT_EQ(src.byte_offset(), 8u);
}

}  // namespace
}  // namespace tnb::sim
