// tnb::fleet differential lane equivalence: fleet decode of an N-channel
// composite must be packet-identical, per channel, to N independent
// one-shot Receiver::decode runs on the same channelized streams — for
// every lane count and every wideband chunk size — and the merged ledger
// must come out in one deterministic order regardless of scheduling; one
// pinned decode holds the ledger and the per-channel stats to captured
// values. This binary also runs under the thread-sanitizer CI job.
#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "dsp/fft_backend.hpp"
#include "fleet/channelizer.hpp"
#include "sim/deployment.hpp"
#include "sim/trace_builder.hpp"
#include "stream/chunk_source.hpp"
#include "stream/ring_buffer.hpp"

namespace tnb::fleet {
namespace {

// osf 2 keeps the FFTs small enough for many-lane tests (same trade as
// test_streaming / test_concurrency).
lora::Params test_params(unsigned sf = 8) {
  return {.sf = sf, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
}

sim::TraceOptions traffic(double duration_s, double load_pps) {
  sim::TraceOptions opt;
  opt.duration_s = duration_s;
  opt.load_pps = load_pps;
  opt.nodes = {{1, 20.0, 900.0}, {2, 15.0, -1800.0}, {3, 12.0, 400.0}};
  return opt;
}

/// The composite stimulus plus its channelized per-channel ground truth.
struct Composite {
  IqBuffer wideband;
  std::vector<IqBuffer> channels;  ///< offline channelizer output
};

Composite make_composite(const std::vector<IqBuffer>& per_channel,
                         unsigned n_channels) {
  Composite c;
  c.wideband = mix_channels(per_channel, n_channels);
  Channelizer chan(n_channels);
  c.channels.resize(n_channels);
  chan.push(c.wideband, c.channels);
  return c;
}

std::vector<std::vector<std::uint8_t>> payload_multiset(
    const std::vector<sim::DecodedPacket>& pkts) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(pkts.size());
  for (const auto& p : pkts) out.push_back(p.payload);
  std::sort(out.begin(), out.end());
  return out;
}

/// Feeds `wideband` to `fleet` in pushes of `chunk` samples, then
/// finishes it.
void feed(Fleet& fleet, std::span<const cfloat> wideband, std::size_t chunk) {
  for (std::size_t pos = 0; pos < wideband.size(); pos += chunk) {
    fleet.push_wideband(
        wideband.subspan(pos, std::min(chunk, wideband.size() - pos)));
  }
  fleet.finish();
}

/// Ledger entries of one (channel, sf) lane as a decoded packet list.
std::vector<sim::DecodedPacket> lane_packets(
    const std::vector<LedgerEntry>& ledger, unsigned channel, unsigned sf) {
  std::vector<sim::DecodedPacket> out;
  for (const auto& e : ledger) {
    if (e.channel == channel && e.sf == sf) out.push_back(e.pkt);
  }
  return out;
}

TEST(Fleet, DifferentialLaneEquivalence) {
  // N = 4 channels of independent collided traffic, J in {1, 2, 8}
  // workers, three wideband chunkings (sub-block odd, bulk, whole trace).
  const lora::Params p = test_params();
  const unsigned n_channels = 4;
  Rng rng(42);
  const auto traces = sim::build_multichannel_traces(
      p, traffic(1.5, 8.0), n_channels, rng);
  std::vector<IqBuffer> per_channel;
  for (const auto& t : traces) per_channel.push_back(t.iq);
  const Composite comp = make_composite(per_channel, n_channels);

  // Ground truth: N independent one-shot decodes of the channelized
  // streams (the headline claim's right-hand side).
  rx::Receiver oneshot(p);
  std::vector<std::vector<sim::DecodedPacket>> reference(n_channels);
  std::size_t total_ref = 0;
  for (unsigned c = 0; c < n_channels; ++c) {
    Rng drng(1);
    reference[c] = oneshot.decode(comp.channels[c], drng);
    total_ref += reference[c].size();
  }
  ASSERT_GE(total_ref, 3u) << "composite too quiet to be a meaningful test";

  for (const int lanes : {1, 2, 8}) {
    for (const std::size_t chunk :
         {std::size_t{999}, std::size_t{65536}, comp.wideband.size()}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " chunk=" + std::to_string(chunk));
      FleetOptions fopt;
      fopt.n_channels = n_channels;
      fopt.sfs = {p.sf};
      fopt.lanes = lanes;
      fopt.stream.window_symbols = 512;
      fopt.stream.rng_seed = 1;
      Fleet fleet(p, fopt);
      feed(fleet, comp.wideband, chunk);

      const auto& ledger = fleet.ledger();
      for (unsigned c = 0; c < n_channels; ++c) {
        const auto got = lane_packets(ledger, c, p.sf);
        EXPECT_EQ(payload_multiset(got), payload_multiset(reference[c]))
            << "channel " << c;
        // t0 is trace-global on the shared per-channel clock.
        std::vector<double> got_t0, want_t0;
        for (const auto& pkt : got) got_t0.push_back(pkt.start_sample);
        for (const auto& pkt : reference[c]) {
          want_t0.push_back(pkt.start_sample);
        }
        std::sort(got_t0.begin(), got_t0.end());
        std::sort(want_t0.begin(), want_t0.end());
        ASSERT_EQ(got_t0.size(), want_t0.size());
        for (std::size_t i = 0; i < got_t0.size(); ++i) {
          EXPECT_NEAR(got_t0[i], want_t0[i], 1.0);
        }
      }

      // The equivalence property stands on clean cuts only.
      const FleetStats st = fleet.stats();
      ASSERT_EQ(st.lane_stats.size(), n_channels);
      const std::size_t blocks = comp.wideband.size() / n_channels;
      for (const auto& [info, lane_st] : st.lane_stats) {
        EXPECT_EQ(lane_st.forced_cuts, 0u);
        EXPECT_EQ(lane_st.samples_in, blocks);
        EXPECT_EQ(lane_st.samples_retired, blocks);
      }
      EXPECT_EQ(st.wideband_samples_in, comp.wideband.size());
      EXPECT_EQ(st.wideband_blocks, blocks);
      EXPECT_EQ(st.packets, ledger.size());
      EXPECT_EQ(st.resident_iq_samples, 0u);
      EXPECT_LE(st.resident_iq_high_water, st.resident_iq_bound);
    }
  }
}

TEST(Fleet, WideSfMatrixAcrossEightChannels) {
  // N = 8 channels, each carrying traffic at its own SF out of 7..12, and
  // a lane bank listening at every SF on every channel (48 lanes). Every
  // lane must reproduce its channelized one-shot reference — the lanes
  // whose SF does not match their channel's traffic included.
  const std::vector<unsigned> sfs = {7, 8, 9, 10, 11, 12};
  // Traffic sits at SF 7..10 — an SF 11/12 packet would not fit the short
  // trace — but the SF 11/12 lanes still run and must agree with their
  // (empty or false-detection) references.
  const auto traffic_sf = [](unsigned c) { return 7 + c % 4; };
  const unsigned n_channels = 8;
  Rng rng(77);
  std::vector<IqBuffer> per_channel(n_channels);
  for (unsigned c = 0; c < n_channels; ++c) {
    const lora::Params pc = test_params(traffic_sf(c));
    sim::TraceOptions topt = traffic(1.0, 5.0);
    for (auto& node : topt.nodes) {
      node.id = static_cast<std::uint16_t>(node.id + c * 1000);
    }
    per_channel[c] = sim::build_trace(pc, topt, rng).iq;
  }
  const Composite comp = make_composite(per_channel, n_channels);

  FleetOptions fopt;
  fopt.n_channels = n_channels;
  fopt.sfs = sfs;
  fopt.lanes = 8;
  fopt.stream.rng_seed = 1;
  Fleet fleet(test_params(), fopt);
  feed(fleet, comp.wideband, 65536);
  const auto& ledger = fleet.ledger();
  EXPECT_GE(ledger.size(), n_channels) << "matrix decoded almost nothing";

  std::size_t matched_lanes_with_packets = 0;
  for (unsigned c = 0; c < n_channels; ++c) {
    for (unsigned sf : sfs) {
      SCOPED_TRACE("channel=" + std::to_string(c) + " sf=" + std::to_string(sf));
      rx::Receiver oneshot(test_params(sf));
      Rng drng(1);
      const auto reference = oneshot.decode(comp.channels[c], drng);
      const auto got = lane_packets(ledger, c, sf);
      EXPECT_EQ(payload_multiset(got), payload_multiset(reference));
      if (sf == traffic_sf(c) && !reference.empty()) {
        ++matched_lanes_with_packets;
      }
    }
  }
  EXPECT_GE(matched_lanes_with_packets, n_channels / 2)
      << "too few matching-SF lanes decoded traffic to be meaningful";
}

TEST(Fleet, LedgerOrderIsDeterministicAcrossSchedules) {
  const lora::Params p = test_params();
  const unsigned n_channels = 4;
  Rng rng(42);
  const auto traces = sim::build_multichannel_traces(
      p, traffic(1.2, 8.0), n_channels, rng);
  std::vector<IqBuffer> per_channel;
  for (const auto& t : traces) per_channel.push_back(t.iq);
  const Composite comp = make_composite(per_channel, n_channels);

  struct Run {
    int lanes;
    std::size_t chunk;
  };
  std::vector<std::vector<LedgerEntry>> ledgers;
  std::vector<std::vector<std::string>> lane_stats;  ///< per run, per lane
  for (const Run r : {Run{1, 65536}, Run{2, 999}, Run{8, 4096}}) {
    FleetOptions fopt;
    fopt.n_channels = n_channels;
    fopt.sfs = {p.sf};
    fopt.lanes = r.lanes;
    fopt.stream.rng_seed = 1;
    Fleet fleet(p, fopt);
    feed(fleet, comp.wideband, r.chunk);
    ledgers.push_back(fleet.ledger());
    lane_stats.emplace_back();
    for (const auto& [info, st] : fleet.stats().lane_stats) {
      lane_stats.back().push_back(st.to_json());
    }
  }
  // Scheduling never reaches a lane's stats either: every lane sees the
  // same chunk sequence in every run.
  ASSERT_EQ(lane_stats[0].size(), n_channels);
  for (std::size_t i = 1; i < lane_stats.size(); ++i) {
    EXPECT_EQ(lane_stats[i], lane_stats[0]) << "run " << i;
  }
  ASSERT_GE(ledgers[0].size(), 3u);
  for (std::size_t i = 1; i < ledgers.size(); ++i) {
    ASSERT_EQ(ledgers[i].size(), ledgers[0].size());
    for (std::size_t j = 0; j < ledgers[0].size(); ++j) {
      EXPECT_EQ(ledgers[i][j].channel, ledgers[0][j].channel);
      EXPECT_EQ(ledgers[i][j].sf, ledgers[0][j].sf);
      EXPECT_EQ(ledgers[i][j].pkt.start_sample,
                ledgers[0][j].pkt.start_sample);
      EXPECT_EQ(ledgers[i][j].pkt.payload, ledgers[0][j].pkt.payload);
    }
  }
  // Canonical order: sorted by (start sample, channel).
  const auto& led = ledgers[0];
  for (std::size_t j = 0; j + 1 < led.size(); ++j) {
    EXPECT_FALSE(ledger_entry_less(led[j + 1], led[j])) << "entry " << j;
  }
}

TEST(Fleet, FleetOfOneMatchesStreamingReceiver) {
  // N = 1 degenerates to a passthrough channelizer: the single lane must
  // behave exactly like a standalone StreamingReceiver on the raw trace.
  const lora::Params p = test_params();
  Rng rng(7);
  const sim::Trace trace = sim::build_trace(p, traffic(1.5, 10.0), rng);

  stream::StreamingOptions sopt;
  sopt.window_symbols = 512;
  sopt.rng_seed = 1;
  stream::StreamingReceiver srx(p, {}, sopt);
  stream::BufferSource ssrc(trace.iq);
  srx.consume(ssrc, 4096);
  ASSERT_GE(srx.packets().size(), 2u);

  FleetOptions fopt;
  fopt.n_channels = 1;
  fopt.sfs = {p.sf};
  fopt.lanes = 2;  // more workers than lanes: clamped, still correct
  fopt.stream = sopt;
  Fleet fleet(p, fopt);
  feed(fleet, trace.iq, 4096);

  std::vector<sim::DecodedPacket> got;
  for (const auto& e : fleet.ledger()) {
    EXPECT_EQ(e.channel, 0u);
    EXPECT_EQ(e.sf, p.sf);
    got.push_back(e.pkt);
  }
  EXPECT_EQ(payload_multiset(got), payload_multiset(srx.packets()));
}

void fnv1a(std::uint64_t& h, std::uint8_t byte) {
  h ^= byte;
  h *= 0x100000001b3ull;
}

void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 64; i += 8) fnv1a(h, static_cast<std::uint8_t>(v >> i));
}

/// "count digest" of a ledger, in its order: the bit pattern of each
/// entry's start sample, its channel and SF, and its payload (length,
/// then bytes).
std::string summarize(const std::vector<LedgerEntry>& ledger) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const LedgerEntry& e : ledger) {
    fnv1a(h, std::bit_cast<std::uint64_t>(e.pkt.start_sample));
    fnv1a(h, std::uint64_t{e.channel});
    fnv1a(h, std::uint64_t{e.sf});
    fnv1a(h, std::uint64_t{e.pkt.payload.size()});
    for (std::uint8_t b : e.pkt.payload) fnv1a(h, b);
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%zu %016llx", ledger.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

/// Restores the process-global FFT backend active when the test started.
struct BackendGuard {
  const char* prev = dsp::active_fft_backend().name();
  ~BackendGuard() { dsp::set_fft_backend(prev); }
};

// The pinned decode below: its ledger's "count digest", and its stats
// line from "channels" to the end, one channel per line.
constexpr const char* kPinnedLedger = "23 84f3f8ff4c761901";
// clang-format off
constexpr const char* kPinnedLaneStats =
    R"("channels":{"0":{"samples_in":2000000,"chunks":62,"segments":6,"forced_cuts":0,"spans_refined":3,"samples_retired":2000000,"live_packets":0,"peak_live_packets":5,"high_water_samples":1005568,"packets_emitted":6,"rx":{"detected":7,"header_ok":6,"crc_ok":6,"decoded_first_pass":6,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":361,"delta2":2,"delta3":0,"crc_checks":7,"blocks_no_repair":89,"candidate_blocks":5},"rescued_packets":6,"rescued_codewords":1}},)"
    R"("1":{"samples_in":2000000,"chunks":62,"segments":6,"forced_cuts":0,"spans_refined":3,"samples_retired":2000000,"live_packets":0,"peak_live_packets":3,"high_water_samples":1005568,"packets_emitted":5,"rx":{"detected":5,"header_ok":5,"crc_ok":5,"decoded_first_pass":5,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":5,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":5,"rescued_codewords":0}},)"
    R"("2":{"samples_in":2000000,"chunks":62,"segments":6,"forced_cuts":0,"spans_refined":3,"samples_retired":2000000,"live_packets":0,"peak_live_packets":3,"high_water_samples":1005568,"packets_emitted":6,"rx":{"detected":6,"header_ok":6,"crc_ok":6,"decoded_first_pass":6,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":6,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":6,"rescued_codewords":0}},)"
    R"("3":{"samples_in":2000000,"chunks":62,"segments":7,"forced_cuts":0,"spans_refined":5,"samples_retired":2000000,"live_packets":0,"peak_live_packets":6,"high_water_samples":1021952,"packets_emitted":6,"rx":{"detected":6,"header_ok":6,"crc_ok":6,"decoded_first_pass":6,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":6,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":6,"rescued_codewords":0}}},)"
    R"("totals":{"samples_in":8000000,"chunks":248,"segments":25,"forced_cuts":0,"spans_refined":14,"samples_retired":8000000,"live_packets":0,"peak_live_packets":17,"high_water_samples":4038656,"packets_emitted":23,"rx":{"detected":24,"header_ok":23,"crc_ok":23,"decoded_first_pass":23,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":361,"delta2":2,"delta3":0,"crc_checks":24,"blocks_no_repair":89,"candidate_blocks":5},"rescued_packets":23,"rescued_codewords":1}}})";
// clang-format on

TEST(Fleet, LedgerMatchesPinnedOutput) {
  // The fleet leg of the A/B decode check, in process: the composite
  // `tnb_gen --channels 4 --sf 8 --duration 1 --load 6 --seed 7` draws
  // (before its int16 quantization), decoded through the two-thread
  // pipeline at tnb_streamd's default chunk by a lane bank at SF 7 and 8,
  // on the scalar backend. The ledger digest and every StreamingStats
  // field past the fleet header (whose resident-IQ high water depends on
  // thread timing) were captured while the ledger was a locked shared
  // object; the lane-owned ledger must reproduce them at every worker
  // count. The trace is synthesized with libm, so another libm can shift
  // it.
  const BackendGuard guard;
  ASSERT_TRUE(dsp::set_fft_backend("scalar"));
  const lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  const unsigned n_channels = 4;
  Rng rng(7);
  sim::TraceOptions topt;
  topt.duration_s = 1.0;
  topt.load_pps = 6.0;
  topt.nodes = sim::indoor_deployment().draw_nodes(rng);
  std::vector<IqBuffer> per_channel;
  for (const auto& t :
       sim::build_multichannel_traces(p, topt, n_channels, rng)) {
    per_channel.push_back(t.iq);
  }
  const IqBuffer wideband = mix_channels(per_channel, n_channels);

  for (const int lanes : {1, 4}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    FleetOptions fopt;
    fopt.n_channels = n_channels;
    fopt.sfs = {7, 8};
    fopt.lanes = lanes;
    Fleet fleet(p, fopt);
    const std::size_t chunk = 16 * p.sps() * n_channels;
    stream::BufferSource src(wideband);
    stream::IqRing ring(8 * chunk);
    run_fleet_pipeline(src, ring, fleet, chunk);

    EXPECT_EQ(summarize(fleet.ledger()), kPinnedLedger);
    const FleetStats st = fleet.stats();
    EXPECT_EQ(st.packets, fleet.ledger().size());
    const std::string json = st.to_json();
    const std::size_t lane_part = json.find("\"channels\":{");
    ASSERT_NE(lane_part, std::string::npos) << json;
    EXPECT_EQ(json.substr(lane_part), kPinnedLaneStats);
  }
}

TEST(Fleet, LifecycleAndAccounting) {
  const lora::Params p = test_params();
  FleetOptions fopt;
  fopt.n_channels = 2;
  fopt.sfs = {p.sf};
  Fleet fleet(p, fopt);

  // 2 channels x 100 blocks + a 1-sample sub-block tail.
  const IqBuffer wideband(2 * 100 + 1, cfloat{0.01f, 0.0f});
  fleet.push_wideband(wideband);
  EXPECT_THROW(fleet.ledger(), std::logic_error);
  fleet.finish();
  fleet.finish();  // idempotent
  EXPECT_THROW(fleet.push_wideband(wideband), std::logic_error);
  EXPECT_TRUE(fleet.ledger().empty());

  const FleetStats st = fleet.stats();
  EXPECT_EQ(st.wideband_samples_in, wideband.size());
  EXPECT_EQ(st.wideband_blocks, 100u);
  EXPECT_EQ(st.partial_tail_samples, 1u);
  EXPECT_EQ(st.chunks_dispatched, 2u);  // one short chunk per lane at EOF
  EXPECT_EQ(st.resident_iq_samples, 0u);
  ASSERT_EQ(st.lane_stats.size(), 2u);
  for (const auto& [info, lane_st] : st.lane_stats) {
    EXPECT_EQ(lane_st.samples_in, 100u);
    EXPECT_EQ(info.sf, p.sf);
  }

  FleetOptions bad;
  bad.n_channels = 2;
  bad.sfs.clear();
  EXPECT_THROW(Fleet(p, bad), std::invalid_argument);
  bad = FleetOptions{};
  bad.n_channels = 3;  // not a power of two
  EXPECT_THROW(Fleet(p, bad), std::invalid_argument);
}

}  // namespace
}  // namespace tnb::fleet
