// StreamingReceiver: chunked gateway decode must be equivalent to one-shot
// Receiver::decode for every chunk size, with O(window) resident IQ (see
// DESIGN.md "Streaming gateway").
#include "stream/streaming_receiver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "dsp/fft_backend.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::stream {
namespace {

// osf 2 keeps the FFTs small enough for a multi-decode test (same trade as
// test_concurrency).
lora::Params test_params() {
  return {.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
}

sim::Trace collision_trace(double duration_s, double load_pps,
                           std::uint64_t seed) {
  Rng rng(seed);
  sim::TraceOptions opt;
  opt.duration_s = duration_s;
  opt.load_pps = load_pps;
  opt.nodes = {{1, 20.0, 900.0}, {2, 15.0, -1800.0}, {3, 12.0, 400.0}};
  return sim::build_trace(test_params(), opt, rng);
}

/// Payload multiset: the equivalence bar is the decoded packet set, not the
/// emission order (segments emit in time order, one-shot in resolve order).
std::vector<std::vector<std::uint8_t>> payload_multiset(
    const std::vector<sim::DecodedPacket>& pkts) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(pkts.size());
  for (const auto& p : pkts) out.push_back(p.payload);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> sorted_starts(const std::vector<sim::DecodedPacket>& pkts) {
  std::vector<double> out;
  out.reserve(pkts.size());
  for (const auto& p : pkts) out.push_back(p.start_sample);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Streaming, ChunkBoundaryEquivalence) {
  const lora::Params p = test_params();
  const sim::Trace trace = collision_trace(3.0, 8.0, 42);

  rx::Receiver oneshot(p);
  Rng rng(1);
  rx::ReceiverStats oneshot_stats;
  const auto reference = oneshot.decode(trace.iq, rng, &oneshot_stats);
  ASSERT_GE(reference.size(), 3u) << "trace too quiet to be a meaningful test";

  // 2^SF/4 and 2^SF samples (sub-symbol chunks), 64k, and the whole trace
  // in one push — the decoded packet set must be identical to one-shot.
  const std::vector<std::size_t> chunk_sizes = {
      (std::size_t{1} << p.sf) / 4, std::size_t{1} << p.sf, 65536,
      trace.iq.size()};
  for (const std::size_t chunk : chunk_sizes) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    StreamingOptions sopt;
    sopt.window_symbols = 256;
    sopt.rng_seed = 1;
    StreamingReceiver srx(p, {}, sopt);
    BufferSource source(trace.iq);
    EXPECT_EQ(srx.consume(source, chunk), trace.iq.size());

    EXPECT_EQ(payload_multiset(srx.packets()), payload_multiset(reference));
    // Streaming reports trace-global positions; compare against one-shot.
    const auto got = sorted_starts(srx.packets());
    const auto want = sorted_starts(reference);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1.0);
    }

    const StreamingStats& st = srx.stats();
    const std::size_t window_samples =
        srx.options().window_symbols * p.sps();
    EXPECT_GE(st.segments, 2u) << "cuts never happened; trivial equivalence";
    EXPECT_LT(st.high_water_samples, 2 * window_samples);
    EXPECT_EQ(st.samples_in, trace.iq.size());
    EXPECT_EQ(st.samples_retired, trace.iq.size());
    EXPECT_EQ(st.packets_emitted, reference.size());
    // Per-segment stats merge to the one-shot totals: each packet is seen
    // by exactly one segment, so the accumulated counters match.
    EXPECT_EQ(st.rx.crc_ok, oneshot_stats.crc_ok);
    EXPECT_EQ(st.rx.header_ok, oneshot_stats.header_ok);
    EXPECT_EQ(st.rx.decoded_first_pass, oneshot_stats.decoded_first_pass);
    EXPECT_EQ(st.rx.decoded_second_pass, oneshot_stats.decoded_second_pass);
    EXPECT_EQ(st.rx.detected, oneshot_stats.detected);
  }
}

TEST(Streaming, CallbackSeesEveryPacketOnce) {
  const lora::Params p = test_params();
  const sim::Trace trace = collision_trace(2.0, 8.0, 7);
  StreamingOptions sopt;
  sopt.window_symbols = 256;
  StreamingReceiver srx(p, {}, sopt);
  std::size_t called = 0;
  srx.set_packet_callback([&](const sim::DecodedPacket&) { ++called; });
  BufferSource source(trace.iq);
  srx.consume(source, 4096);
  EXPECT_EQ(called, srx.packets().size());
  EXPECT_EQ(called, srx.stats().packets_emitted);
}

TEST(Streaming, RingPipelineMatchesDirectConsume) {
  const lora::Params p = test_params();
  const sim::Trace trace = collision_trace(2.0, 10.0, 11);

  StreamingOptions sopt;
  sopt.window_symbols = 256;
  StreamingReceiver direct(p, {}, sopt);
  BufferSource direct_src(trace.iq);
  direct.consume(direct_src, 4096);

  StreamingReceiver piped(p, {}, sopt);
  BufferSource piped_src(trace.iq);
  IqRing ring(16384);
  const std::size_t total = run_pipeline(piped_src, ring, piped, 4096);

  EXPECT_EQ(total, trace.iq.size());
  EXPECT_EQ(ring.stats().dropped, 0u);
  EXPECT_EQ(payload_multiset(piped.packets()), payload_multiset(direct.packets()));
  EXPECT_EQ(piped.stats().segments, direct.stats().segments);
}

TEST(Streaming, FinishIsIdempotentAndPushAfterFinishThrows) {
  const lora::Params p = test_params();
  StreamingReceiver srx(p);
  IqBuffer quiet(4 * p.sps());
  srx.push_chunk(quiet);
  srx.finish();
  srx.finish();
  EXPECT_EQ(srx.stats().samples_in, quiet.size());
  EXPECT_EQ(srx.stats().samples_retired, quiet.size());
  EXPECT_THROW(srx.push_chunk(quiet), std::logic_error);
}

TEST(Streaming, WindowIsRaisedToFitOneMaxPacketSpan) {
  const lora::Params p = test_params();
  StreamingOptions sopt;
  sopt.window_symbols = 1;  // absurdly small; the constructor must fix it
  StreamingReceiver srx(p, {}, sopt);
  const auto max_pkt = static_cast<std::size_t>(rx::kMaxTrackedSymbols);
  EXPECT_GE(srx.options().window_symbols,
            (p.preamble_samples() + max_pkt * p.sps()) / p.sps());
}

TEST(Streaming, BoundedMemoryUnderContinuousTraffic) {
  // Heavy load: live-packet spans chain past the window, so clean cuts are
  // rare and memory is bounded by forced cuts instead. Equivalence is not
  // guaranteed here (forced cuts may split packets) — the bound is.
  const lora::Params p = test_params();
  const sim::Trace trace = collision_trace(4.0, 40.0, 5);
  StreamingOptions sopt;
  sopt.window_symbols = 1;  // raised to the floor: the tightest legal window
  StreamingReceiver srx(p, {}, sopt);
  BufferSource source(trace.iq);
  srx.consume(source, 8192);

  const StreamingStats& st = srx.stats();
  const std::size_t window_samples = srx.options().window_symbols * p.sps();
  EXPECT_LT(st.high_water_samples, 2 * window_samples);
  EXPECT_EQ(st.samples_retired, trace.iq.size());
  EXPECT_GE(st.segments, trace.iq.size() / (2 * window_samples));
}

void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 64; i += 8) {
    h ^= (v >> i) & 0xff;
    h *= 0x100000001b3ull;
  }
}

/// "count digest" of packets in emission order: the bit pattern of each
/// start sample, then its payload (length, then bytes).
std::string summarize(const std::vector<sim::DecodedPacket>& pkts) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const sim::DecodedPacket& pkt : pkts) {
    fnv1a(h, std::bit_cast<std::uint64_t>(pkt.start_sample));
    fnv1a(h, std::uint64_t{pkt.payload.size()});
    for (std::uint8_t b : pkt.payload) fnv1a(h, std::uint64_t{b});
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%zu %016llx", pkts.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

/// Restores the process-global FFT backend active when the test started.
struct BackendGuard {
  const char* prev = dsp::active_fft_backend().name();
  ~BackendGuard() { dsp::set_fft_backend(prev); }
};

TEST(Streaming, PinnedOutputWithForcedCuts) {
  // Dense traffic never goes quiet, so the stream forces cuts, and its
  // output then depends on where they land: no offline decode to compare
  // with. The packets (in emission order) and the stats of each chunk size
  // are pinned instead, as captured on the scalar backend. The trace is
  // synthesized with libm, so another libm can shift it.
  const BackendGuard guard;
  ASSERT_TRUE(dsp::set_fft_backend("scalar"));
  const lora::Params p = test_params();
  const sim::Trace trace = collision_trace(3.0, 50.0, 9);
  struct Pin {
    std::size_t chunk;
    const char* packets;
    const char* stats;
  };
  // clang-format off
  const Pin pins[] = {
      {p.sps() / 4, "67 2f4ac1a2b135e741",
       R"({"samples_in":750000,"chunks":5860,"segments":5,"forced_cuts":3,"spans_refined":33,"samples_retired":750000,"live_packets":0,"peak_live_packets":47,"high_water_samples":204800,"packets_emitted":67,"rx":{"detected":139,"header_ok":107,"crc_ok":67,"decoded_first_pass":62,"decoded_second_pass":5,"bec":{"delta_prime":0,"delta1":11320,"delta2":67,"delta3":0,"crc_checks":673,"blocks_no_repair":2010,"candidate_blocks":2403},"rescued_packets":67,"rescued_codewords":85}})"},
      {16 * p.sps(), "71 afadba8d82c0d4d8",
       R"({"samples_in":750000,"chunks":92,"segments":6,"forced_cuts":3,"spans_refined":26,"samples_retired":750000,"live_packets":0,"peak_live_packets":44,"high_water_samples":209920,"packets_emitted":71,"rx":{"detected":138,"header_ok":114,"crc_ok":71,"decoded_first_pass":64,"decoded_second_pass":7,"bec":{"delta_prime":0,"delta1":9982,"delta2":98,"delta3":0,"crc_checks":603,"blocks_no_repair":1958,"candidate_blocks":1347},"rescued_packets":71,"rescued_codewords":97}})"},
      {trace.iq.size(), "77 fd00447667b5c301",
       R"({"samples_in":750000,"chunks":1,"segments":7,"forced_cuts":3,"spans_refined":34,"samples_retired":750000,"live_packets":0,"peak_live_packets":53,"high_water_samples":256512,"packets_emitted":77,"rx":{"detected":140,"header_ok":116,"crc_ok":77,"decoded_first_pass":73,"decoded_second_pass":4,"bec":{"delta_prime":0,"delta1":10249,"delta2":225,"delta3":0,"crc_checks":709,"blocks_no_repair":1942,"candidate_blocks":1650},"rescued_packets":77,"rescued_codewords":118}})"},
  };
  // clang-format on
  for (const Pin& pin : pins) {
    SCOPED_TRACE("chunk=" + std::to_string(pin.chunk));
    StreamingReceiver srx(p);
    BufferSource source(trace.iq);
    srx.consume(source, pin.chunk);
    EXPECT_GE(srx.stats().forced_cuts, 2u);
    EXPECT_EQ(summarize(srx.packets()), pin.packets);
    EXPECT_EQ(srx.stats().to_json(), pin.stats);
  }
}

/// Yields `chunks` chunks of 64 zero samples, then throws; with
/// `chunks` < 0 it never ends.
class ThrowingSource final : public ChunkSource {
 public:
  explicit ThrowingSource(int chunks) : left_(chunks) {}
  std::size_t next(IqBuffer& out, std::size_t /*max_samples*/) override {
    if (left_ == 0) throw std::runtime_error("source failed");
    if (left_ > 0) --left_;
    out.assign(64, cfloat{0.0f, 0.0f});
    return out.size();
  }

 private:
  int left_;
};

TEST(Pump, ForwardsTheProducersExceptionAfterDraining) {
  ThrowingSource src(3);
  IqRing ring(1 << 12);
  std::size_t consumed = 0;
  try {
    pump(src, ring, 64, /*backpressure=*/true,
         [&](std::span<const cfloat> c) { consumed += c.size(); }, {});
    FAIL() << "pump returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "source failed");
  }
  EXPECT_EQ(consumed, 3u * 64u);
}

TEST(Pump, ConsumerExceptionStopsTheProducerAndComesFirst) {
  // An endless source: the producer must stop once the consumer's throw
  // closes the ring, or the pump never joins.
  for (const bool backpressure : {true, false}) {
    ThrowingSource src(-1);
    IqRing ring(256);
    int calls = 0;
    try {
      pump(src, ring, 64, backpressure,
           [&](std::span<const cfloat>) {
             if (++calls == 2) throw std::logic_error("consumer failed");
           },
           {});
      FAIL() << "pump returned";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "consumer failed");
    }
  }
  // Both sides fail: the consumer's exception wins.
  ThrowingSource src(4);
  IqRing ring(1 << 12);
  EXPECT_THROW(pump(src, ring, 64, true,
                    [](std::span<const cfloat>) {
                      throw std::logic_error("consumer failed");
                    },
                    {}),
               std::logic_error);
}

}  // namespace
}  // namespace tnb::stream
