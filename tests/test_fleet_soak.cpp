// Fleet soak: sustained heavy-load decoding through the full two-thread
// run_fleet_pipeline must keep resident IQ bounded (the backpressure
// ceiling holds at every observation point, not just at the end) and lose
// zero packets relative to the per-channel one-shot references.
//
// CI runs a short composite; set TNB_FLEET_SOAK_SECONDS (e.g. 30) for the
// full soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "fleet/channelizer.hpp"
#include "fleet/fleet.hpp"
#include "sim/trace_builder.hpp"
#include "stream/chunk_source.hpp"
#include "stream/ring_buffer.hpp"

namespace tnb::fleet {
namespace {

lora::Params test_params() {
  return {.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
}

double soak_seconds() {
  const char* env = std::getenv("TNB_FLEET_SOAK_SECONDS");
  if (env == nullptr) return 2.0;  // CI-sized
  return std::max(2.0, std::atof(env));
}

std::vector<std::vector<std::uint8_t>> payload_multiset(
    const std::vector<sim::DecodedPacket>& pkts) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(pkts.size());
  for (const auto& p : pkts) out.push_back(p.payload);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FleetSoak, BoundedMemoryAndZeroLossUnderSustainedLoad) {
  const lora::Params p = test_params();
  const unsigned n_channels = 4;
  const double duration = soak_seconds();

  Rng rng(2026);
  sim::TraceOptions topt;
  topt.duration_s = duration;
  // Heavy but sub-saturation: ~0.9 duty cycle of sustained collision
  // clusters per channel. Past duty 1 the clusters never close and the
  // assembler is forced to cut, which is a different (lossy) regime.
  topt.load_pps = 10.0;
  topt.nodes = {{1, 20.0, 900.0},  {2, 16.0, -1800.0},
                {3, 13.0, 2600.0}, {4, 10.0, -400.0}};
  const auto traces =
      sim::build_multichannel_traces(p, topt, n_channels, rng);
  std::vector<IqBuffer> per_channel;
  for (const auto& t : traces) per_channel.push_back(t.iq);
  const IqBuffer wideband = mix_channels(per_channel, n_channels);

  // Per-channel ground truth from the same channelized signal the lanes
  // will see.
  Channelizer chan(n_channels);
  std::vector<IqBuffer> channelized(n_channels);
  chan.push(wideband, channelized);
  rx::Receiver oneshot(p);
  std::vector<std::vector<sim::DecodedPacket>> reference(n_channels);
  std::size_t total_ref = 0;
  for (unsigned c = 0; c < n_channels; ++c) {
    Rng drng(1);
    reference[c] = oneshot.decode(channelized[c], drng);
    total_ref += reference[c].size();
  }
  ASSERT_GE(total_ref, n_channels * duration * 2)
      << "soak trace too quiet to stress anything";

  FleetOptions fopt;
  fopt.n_channels = n_channels;
  fopt.sfs = {p.sf};
  fopt.lanes = 2;  // fewer workers than lanes: real queueing
  fopt.stream.window_symbols = 512;
  fopt.stream.rng_seed = 1;
  Fleet fleet(p, fopt);

  // The bound must hold at every observation point during the run, not
  // just after the wind-down.
  const std::size_t bound = fleet.stats().resident_iq_bound;
  ASSERT_GT(bound, 0u);
  std::size_t observations = 0;
  std::size_t worst_resident = 0;
  const auto on_chunk = [&](std::size_t) {
    const FleetStats st = fleet.stats();
    worst_resident = std::max(worst_resident, st.resident_iq_samples);
    EXPECT_LE(st.resident_iq_samples, bound);
    ++observations;
  };

  stream::BufferSource src(wideband);
  stream::IqRing ring(1 << 18);
  const std::size_t consumed =
      run_fleet_pipeline(src, ring, fleet, 16384, true, on_chunk);
  EXPECT_EQ(consumed, wideband.size());
  EXPECT_EQ(ring.stats().dropped, 0u);
  EXPECT_GT(observations, 4u) << "soak too short to observe anything";

  const FleetStats st = fleet.stats();
  EXPECT_LE(st.resident_iq_high_water, bound);
  EXPECT_EQ(st.resident_iq_samples, 0u);
  // Peak resident IQ stays below the documented per-lane ceiling: twice
  // the assembly window plus the bounded queue, summed over lanes.
  std::size_t recomputed_bound = 0;
  for (const auto& [info, lane_st] : st.lane_stats) {
    EXPECT_LT(lane_st.high_water_samples, 2 * info.window_samples);
    EXPECT_EQ(lane_st.forced_cuts, 0u);
    recomputed_bound += 2 * info.window_samples;
  }
  EXPECT_GE(bound, recomputed_bound);

  // Zero lost-packet disagreements: every reference packet decoded, on the
  // right channel, and nothing invented.
  std::vector<std::vector<sim::DecodedPacket>> got(n_channels);
  for (const auto& e : fleet.ledger()) {
    ASSERT_LT(e.channel, n_channels);
    got[e.channel].push_back(e.pkt);
  }
  for (unsigned c = 0; c < n_channels; ++c) {
    EXPECT_EQ(payload_multiset(got[c]), payload_multiset(reference[c]))
        << "channel " << c;
  }
}

}  // namespace
}  // namespace tnb::fleet
