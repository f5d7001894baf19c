// fleet::Channelizer: the analysis must invert mix_channels exactly (to
// float rounding) on every channel — including the DC and band-edge
// channels a real gateway parks traffic on — output must be invariant to
// wideband chunking, and sub-block tails must be sticky.
#include "fleet/channelizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::fleet {
namespace {

lora::Params test_params() {
  return {.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
}

IqBuffer random_iq(std::size_t n, Rng& rng) {
  IqBuffer iq(n);
  for (auto& v : iq) {
    v = {static_cast<float>(rng.uniform() * 2.0 - 1.0),
         static_cast<float>(rng.uniform() * 2.0 - 1.0)};
  }
  return iq;
}

std::vector<IqBuffer> channelize_all(std::span<const cfloat> wideband,
                                     unsigned n_channels,
                                     std::size_t chunk = 0) {
  Channelizer chan(n_channels);
  std::vector<IqBuffer> out(n_channels);
  if (chunk == 0) {
    chan.push(wideband, out);
  } else {
    for (std::size_t pos = 0; pos < wideband.size(); pos += chunk) {
      chan.push(wideband.subspan(pos, std::min(chunk, wideband.size() - pos)),
                out);
    }
  }
  return out;
}

double channel_power(const IqBuffer& c) {
  double p = 0.0;
  for (const cfloat& v : c) p += std::norm(v);
  return c.empty() ? 0.0 : p / static_cast<double>(c.size());
}

std::vector<std::vector<std::uint8_t>> payload_multiset(
    const std::vector<sim::DecodedPacket>& pkts) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(pkts.size());
  for (const auto& p : pkts) out.push_back(p.payload);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Channelizer, CenterOffsetsWrapAtNyquist) {
  EXPECT_EQ(channel_center_offset(0, 8), 0.0);
  EXPECT_EQ(channel_center_offset(1, 8), 1.0);
  EXPECT_EQ(channel_center_offset(4, 8), 4.0);   // band edge
  EXPECT_EQ(channel_center_offset(5, 8), -3.0);  // wraps negative
  EXPECT_EQ(channel_center_offset(7, 8), -1.0);
}

TEST(Channelizer, OptionsValidate) {
  EXPECT_THROW(Channelizer(0), std::invalid_argument);
  EXPECT_THROW(Channelizer(6), std::invalid_argument);
  EXPECT_THROW(Channelizer(2048), std::invalid_argument);
  EXPECT_NO_THROW(Channelizer(1));
}

TEST(Channelizer, Taps1RoundTripIsExact) {
  Rng rng(3);
  for (unsigned n : {1u, 2u, 8u, 16u}) {
    SCOPED_TRACE("n_channels=" + std::to_string(n));
    std::vector<IqBuffer> channels(n);
    for (auto& c : channels) c = random_iq(257, rng);
    const IqBuffer wideband = mix_channels(channels, n);
    ASSERT_EQ(wideband.size(), 257u * n);

    const auto out = channelize_all(wideband, n);
    for (unsigned k = 0; k < n; ++k) {
      ASSERT_EQ(out[k].size(), channels[k].size());
      float worst = 0.0f;
      for (std::size_t m = 0; m < out[k].size(); ++m) {
        worst = std::max(worst, std::abs(out[k][m] - channels[k][m]));
      }
      EXPECT_LT(worst, 1e-4f) << "channel " << k;
    }
  }
}

TEST(Channelizer, OutputInvariantToWidebandChunking) {
  Rng rng(11);
  const IqBuffer wideband = random_iq(8 * 300 + 5, rng);  // sub-block tail
  const auto whole = channelize_all(wideband, 8);
  for (std::size_t chunk : {1ul, 7ul, 8ul, 1000ul}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const auto chunked = channelize_all(wideband, 8, chunk);
    for (unsigned k = 0; k < 8; ++k) EXPECT_EQ(whole[k], chunked[k]);
  }
}

TEST(Channelizer, SubBlockTailIsStickyAndNeverEmitted) {
  Rng rng(5);
  const IqBuffer wideband = random_iq(8 * 40 + 3, rng);
  Channelizer chan(8);
  std::vector<IqBuffer> out(8);
  chan.push(wideband, out);
  EXPECT_EQ(chan.blocks(), 40u);
  EXPECT_EQ(chan.pending_samples(), 3u);
  for (const auto& c : out) EXPECT_EQ(c.size(), 40u);
  // Completing the block flushes it; the tail was held, not dropped early.
  const IqBuffer rest(5, cfloat{1.0f, 0.0f});
  chan.push(rest, out);
  EXPECT_EQ(chan.blocks(), 41u);
  EXPECT_EQ(chan.pending_samples(), 0u);
  for (const auto& c : out) EXPECT_EQ(c.size(), 41u);
}

TEST(Channelizer, WidebandToneSortsIntoItsChannel) {
  // A tone at channel k's center must come out flat in channel k and
  // (bin-centered) vanish everywhere else.
  const unsigned n = 8;
  for (unsigned k : {0u, 3u, 4u, 7u}) {  // DC, interior, band edge, negative
    SCOPED_TRACE("channel " + std::to_string(k));
    IqBuffer wideband(n * 64);
    for (std::size_t i = 0; i < wideband.size(); ++i) {
      const double ph = 2.0 * std::numbers::pi * k *
                        static_cast<double>(i % n) / static_cast<double>(n);
      wideband[i] = {static_cast<float>(std::cos(ph)),
                     static_cast<float>(std::sin(ph))};
    }
    const auto out = channelize_all(wideband, n);
    for (unsigned c = 0; c < n; ++c) {
      const double p = channel_power(out[c]);
      if (c == k) {
        EXPECT_NEAR(p, 1.0, 1e-4);
      } else {
        EXPECT_LT(p, 1e-8);
      }
    }
  }
}

TEST(Channelizer, DecodeOnDcAndEdgeChannelsMatchesOriginal) {
  // End to end at the decode level: packets transmitted on the DC channel
  // and on the band-edge channel (the wrap cases) of an 8-channel
  // composite must decode from the channelized streams exactly as from
  // the original baseband traces.
  const lora::Params p = test_params();
  Rng rng(21);
  sim::TraceOptions topt;
  topt.duration_s = 1.5;
  topt.load_pps = 6.0;
  topt.nodes = {{1, 18.0, 700.0}, {2, 14.0, -1200.0}};
  const unsigned n = 8;
  const sim::Trace dc_trace = sim::build_trace(p, topt, rng);
  const sim::Trace edge_trace = sim::build_trace(p, topt, rng);

  std::vector<IqBuffer> channels(n);
  channels[0] = dc_trace.iq;        // DC
  channels[n / 2] = edge_trace.iq;  // band edge (wraps to -fs*N/2)
  const IqBuffer wideband = mix_channels(channels, n);
  const auto out = channelize_all(wideband, n);

  Rng d1(1), d2(1), d3(1), d4(1);
  rx::Receiver rx(p);
  const auto ref_dc = rx.decode(dc_trace.iq, d1);
  const auto got_dc = rx.decode(out[0], d2);
  const auto ref_edge = rx.decode(edge_trace.iq, d3);
  const auto got_edge = rx.decode(out[n / 2], d4);
  ASSERT_GE(ref_dc.size(), 2u) << "DC trace too quiet to be meaningful";
  ASSERT_GE(ref_edge.size(), 2u) << "edge trace too quiet to be meaningful";
  EXPECT_EQ(payload_multiset(got_dc), payload_multiset(ref_dc));
  EXPECT_EQ(payload_multiset(got_edge), payload_multiset(ref_edge));
}

}  // namespace
}  // namespace tnb::fleet
