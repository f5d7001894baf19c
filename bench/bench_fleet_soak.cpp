// bench_fleet_soak — multi-channel gateway fleet throughput and memory
// soak (DESIGN.md "Gateway fleet").
//
// Builds an 8-channel wideband composite, decodes it twice and compares:
//   stream_sps  one worker, channel at a time: channelize, then run each
//               channel through a standalone StreamingReceiver
//               sequentially — the single-gateway baseline.
//   fleet_sps   tnb::fleet with --jobs workers driving all lanes through
//               the two-thread wideband pipeline.
// Both rates are wideband samples per wall-clock second over the same
// composite, so fleet_sps / stream_sps is the fleet's parallel speedup.
// The fleet run also reports its resident-IQ high water against the
// documented backpressure ceiling and cross-checks the ledger against the
// baseline's packets (any disagreement prints agree=no and exits 1).
//
// TNB_BENCH_FULL=1 lengthens the composite (10 s per channel vs 2 s);
// TNB_FLEET_BENCH_SECONDS overrides the duration outright.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "cli.hpp"
#include "fleet/channelizer.hpp"
#include "fleet/fleet.hpp"
#include "stream/chunk_source.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/streaming_receiver.hpp"

namespace tnb {
namespace {

std::vector<std::vector<std::uint8_t>> payload_multiset(
    std::vector<std::vector<std::uint8_t>> payloads) {
  std::sort(payloads.begin(), payloads.end());
  return payloads;
}

double bench_seconds() {
  const char* env = std::getenv("TNB_FLEET_BENCH_SECONDS");
  if (env != nullptr) return std::max(0.5, std::atof(env));
  return bench::full_mode() ? 10.0 : 2.0;
}

}  // namespace
}  // namespace tnb

int main(int argc, char** argv) {
  using namespace tnb;

  int jobs = common::default_jobs();
  const cli::Parser cli("bench_fleet_soak", {cli::jobs(jobs)});
  if (const auto status = cli.run(argc, argv)) return *status;
  const unsigned n_channels = 8;
  const lora::Params params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3,
                            .osf = 2};
  const double duration = bench_seconds();

  bench::print_header("Gateway fleet soak: N-channel composite throughput",
                      "tnb::fleet headline claim");
  std::printf("channels=%u sf=%u osf=%u duration=%.1fs jobs=%d\n", n_channels,
              params.sf, params.osf, duration, jobs);

  Rng rng(404);
  sim::TraceOptions topt;
  topt.duration_s = duration;
  topt.load_pps = 8.0;
  topt.nodes = {{1, 20.0, 900.0},  {2, 16.0, -1800.0},
                {3, 13.0, 2600.0}, {4, 10.0, -400.0}};
  const auto traces =
      sim::build_multichannel_traces(params, topt, n_channels, rng);
  std::vector<IqBuffer> per_channel;
  per_channel.reserve(n_channels);
  for (const auto& t : traces) per_channel.push_back(t.iq);
  const IqBuffer wideband = fleet::mix_channels(per_channel, n_channels);
  std::printf("wideband_samples=%zu\n", wideband.size());

  stream::StreamingOptions sopt;
  sopt.window_symbols = 512;
  sopt.rng_seed = 1;
  const std::size_t chunk = 16 * params.sps();

  // Baseline: channelize + one StreamingReceiver per channel, all on this
  // thread.
  std::vector<std::vector<std::uint8_t>> base_payloads;
  bench::WallTimer base_timer;
  {
    fleet::Channelizer chan(n_channels);
    std::vector<IqBuffer> channelized(n_channels);
    chan.push(wideband, channelized);
    for (unsigned c = 0; c < n_channels; ++c) {
      stream::StreamingReceiver rx(params, {}, sopt);
      for (std::size_t pos = 0; pos < channelized[c].size(); pos += chunk) {
        rx.push_chunk(std::span<const cfloat>(channelized[c]).subspan(
            pos, std::min(chunk, channelized[c].size() - pos)));
      }
      rx.finish();
      for (const auto& pkt : rx.packets()) base_payloads.push_back(pkt.payload);
    }
  }
  const double base_s = base_timer.seconds();

  // Fleet: the full two-thread wideband pipeline with `jobs` lane workers.
  fleet::FleetOptions fopt;
  fopt.n_channels = n_channels;
  fopt.sfs = {params.sf};
  fopt.lanes = jobs;
  fopt.stream = sopt;
  fleet::Fleet fleet(params, fopt);
  bench::WallTimer fleet_timer;
  {
    stream::BufferSource src(wideband);
    stream::IqRing ring(1 << 18);
    fleet::run_fleet_pipeline(src, ring, fleet, chunk * n_channels);
  }
  const double fleet_s = fleet_timer.seconds();

  std::vector<std::vector<std::uint8_t>> fleet_payloads;
  for (const auto& e : fleet.ledger()) fleet_payloads.push_back(e.pkt.payload);
  const bool agree = payload_multiset(std::move(base_payloads)) ==
                     payload_multiset(std::move(fleet_payloads));

  const fleet::FleetStats st = fleet.stats();
  const double sps = static_cast<double>(wideband.size());
  std::printf("packets=%zu agree=%s\n", st.packets, agree ? "yes" : "no");
  std::printf("resident_iq_high_water=%zu resident_iq_bound=%zu bounded=%s\n",
              st.resident_iq_high_water, st.resident_iq_bound,
              st.resident_iq_high_water <= st.resident_iq_bound ? "yes" : "no");
  std::printf("stream_sps=%.0f fleet_sps=%.0f speedup=%.2fx\n",
              base_s > 0.0 ? sps / base_s : 0.0,
              fleet_s > 0.0 ? sps / fleet_s : 0.0,
              fleet_s > 0.0 ? base_s / fleet_s : 0.0);
  return agree && st.resident_iq_high_water <= st.resident_iq_bound ? 0 : 1;
}
