// tnb_gen — generate a LoRa trace corpus: raw int16 IQ plus a CSV ground
// truth, in the paper artifact's trace format. `tnb_gen --help` lists the
// flags.
//
// --wire-format encodes every packet with the gr-lora-sdr wire convention
// (lora::Coding::kWire: whitening, CR 4/5..4/8 Hamming, diagonal interleaving,
// explicit header + CRC16) instead of the paper format; decode the result
// with tnb_streamd/tnb_eval --wire-format.
//
// --impair adds one hardware-impairment stage per flag, applied in flag
// order inside the synthesizer (tnb::impair): e.g.
//   --impair phase_noise,linewidth_hz=200 --impair quantize,bits=8
// Zero-severity stages are dropped, so the output is bit-identical to an
// unimpaired run. --traffic poisson|bursty|diurnal switches the flat
// even-split schedule to event arrivals at the same mean load;
// --duty-cycle caps each node's airtime fraction and --sf-dist (e.g.
// "7:0.5,8:0.3,9:0.2") assigns nodes an ADR-like SF mix — foreign-SF
// packets are synthesized as interference but excluded from the ground
// truth (both imply --traffic poisson when it is absent).
//
// Writes PREFIX.bin (antenna 0), PREFIX.ant1.bin... (extra antennas) and
// PREFIX.csv (ground truth).
//
// With --channels N > 1, generates independent traffic on each of N
// frequency channels and writes the interleaved wideband composite (rate
// N x OSF x BW) to PREFIX.bin plus one ground truth per channel,
// PREFIX.ch0.csv ... — the input format of `tnb_streamd --channels N`.
// The int16 scale is auto-reduced when the composite would clip; the
// chosen value is printed (pass it to tnb_streamd --scale).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "channel/tdl.hpp"
#include "cli.hpp"
#include "common/rng.hpp"
#include "fleet/channelizer.hpp"
#include "sim/deployment.hpp"
#include "sim/ground_truth.hpp"
#include "sim/trace_builder.hpp"
#include "sim/trace_io.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace tnb;

  std::string out, deployment = "indoor", channel = "none";
  lora::Params params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  double load = 10.0, duration = 2.0;
  std::uint64_t seed = 1;
  unsigned antennas = 1, n_channels = 1;
  bool implicit = false;
  lora::Coding coding = lora::Coding::kPaper;
  std::vector<impair::ImpairmentConfig> impairments;
  std::optional<sim::TrafficModel> traffic;
  double duty_cycle = 0.0;
  std::vector<std::pair<unsigned, double>> sf_dist;

  const cli::Parser cli(
      "tnb_gen",
      {{"--out PREFIX", cli::text(out), true},
       cli::one_of("--deployment NAME", deployment,
                   "indoor, outdoor1, outdoor2, etu"),
       cli::sf(params), cli::cr(params), cli::bw(params), cli::osf(params),
       {"--load PPS", cli::number(load, 0.0, 1e6)},
       {"--duration S", cli::number(duration, 0.0, 1e6)},
       {"--seed N", cli::number<std::uint64_t>(seed, 0, UINT64_MAX)},
       {"--antennas N", cli::number(antennas, 1u, 64u)},
       cli::one_of("--channel NAME", channel, "none, epa, eva, etu"),
       {"--channels N", cli::number(n_channels, 1u, 1024u)},
       {"--implicit", cli::set(implicit)}, cli::wire_format(coding),
       cli::impair(impairments),
       {"--traffic NAME",
        [&](std::string_view v) -> std::string {
          try {
            traffic = sim::parse_traffic(std::string(v));
          } catch (const std::exception& e) {
            return e.what();
          }
          return {};
        }},
       {"--duty-cycle FRAC", cli::number(duty_cycle, 0.0, 1.0)},
       {"--sf-dist SF:W,SF:W,...",
        [&](std::string_view v) -> std::string {
          std::vector<std::pair<unsigned, double>> weights;
          for (std::string_view item : cli::split(v, ',')) {
            const auto sf_w = cli::split(item, ':');
            if (sf_w.size() != 2 ||
                !cli::to_number(sf_w[0], weights.emplace_back().first) ||
                !cli::to_number(sf_w[1], weights.back().second)) {
              return "expected SF:W,SF:W,..., got '" + std::string(v) + "'";
            }
          }
          sf_dist = std::move(weights);
          return {};
        }}});
  if (const auto status = cli.run(argc, argv)) return *status;

  if (duty_cycle > 0.0 || !sf_dist.empty()) {
    if (!traffic.has_value()) traffic = sim::parse_traffic("poisson");
    traffic->duty_cycle = duty_cycle;
    traffic->sf_weights = sf_dist;
    try {
      traffic->validate();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tnb_gen: %s\n", e.what());
      return 2;
    }
  }

  sim::Deployment dep;
  if (deployment == "indoor") dep = sim::indoor_deployment();
  else if (deployment == "outdoor1") dep = sim::outdoor1_deployment();
  else if (deployment == "outdoor2") dep = sim::outdoor2_deployment();
  else dep = sim::etu_deployment(params.sf);

  std::unique_ptr<chan::TdlChannel> tdl;
  if (channel == "epa") tdl = std::make_unique<chan::TdlChannel>(chan::epa_profile(), 5.0);
  else if (channel == "eva") tdl = std::make_unique<chan::TdlChannel>(chan::eva_profile(), 5.0);
  else if (channel == "etu") tdl = std::make_unique<chan::TdlChannel>(chan::etu_profile(), 5.0);

  Rng rng(seed);
  sim::TraceOptions opt;
  opt.duration_s = duration;
  opt.load_pps = load;
  opt.nodes = dep.draw_nodes(rng);
  opt.channel = tdl.get();
  opt.n_antennas = antennas;
  opt.implicit_header = implicit;
  opt.traffic = traffic;
  opt.impairments = impairments;
  opt.coding = coding;

  if (n_channels > 1) {
    if (antennas != 1) {
      std::fprintf(stderr, "tnb_gen: --channels excludes --antennas\n");
      return 2;
    }
    const auto traces =
        sim::build_multichannel_traces(params, opt, n_channels, rng);
    std::vector<IqBuffer> per_channel;
    per_channel.reserve(traces.size());
    std::size_t total_packets = 0;
    for (const auto& t : traces) per_channel.push_back(t.iq);
    const IqBuffer wideband = fleet::mix_channels(per_channel, n_channels);
    float peak = 0.0f;
    for (const cfloat& v : wideband) {
      peak = std::max({peak, std::abs(v.real()), std::abs(v.imag())});
    }
    double wb_scale = 1024.0;
    if (peak * wb_scale > 30000.0) wb_scale = 30000.0 / peak;
    sim::write_trace_i16(out + ".bin", wideband, wb_scale);
    for (unsigned c = 0; c < n_channels; ++c) {
      sim::write_ground_truth_csv(
          out + ".ch" + std::to_string(c) + ".csv", traces[c].packets);
      total_packets += traces[c].packets.size();
    }
    std::printf("wrote %s.bin (%zu wideband samples, %u channels) and "
                "%s.ch*.csv (%zu packets)\n",
                out.c_str(), wideband.size(), n_channels, out.c_str(),
                total_packets);
    std::printf("deployment=%s sf=%u cr=%u osf=%u load=%.1f duration=%.1f "
                "channels=%u scale=%.1f seed=%llu\n",
                dep.name.c_str(), params.sf, params.cr, params.osf, load,
                duration, n_channels, wb_scale,
                static_cast<unsigned long long>(seed));
    return 0;
  }

  const sim::Trace trace = sim::build_trace(params, opt, rng);

  sim::write_trace_i16(out + ".bin", trace.iq);
  for (std::size_t a = 0; a < trace.extra_antennas.size(); ++a) {
    sim::write_trace_i16(out + ".ant" + std::to_string(a + 1) + ".bin",
                         trace.extra_antennas[a]);
  }
  sim::write_ground_truth_csv(out + ".csv", trace.packets);

  std::printf("wrote %s.bin (%zu samples, %u antenna(s)) and %s.csv "
              "(%zu packets)\n",
              out.c_str(), trace.iq.size(), antennas, out.c_str(),
              trace.packets.size());
  std::printf("deployment=%s sf=%u cr=%u osf=%u load=%.1f duration=%.1f "
              "channel=%s seed=%llu\n",
              dep.name.c_str(), params.sf, params.cr, params.osf, load,
              duration, channel.c_str(),
              static_cast<unsigned long long>(seed));
  if (traffic.has_value()) {
    std::printf("traffic=%s duty_cycle=%g foreign_sf_packets=%zu "
                "duty_dropped=%zu\n",
                sim::arrivals_name(traffic->arrivals), traffic->duty_cycle,
                trace.n_foreign, trace.duty_dropped);
  }
  for (const impair::ImpairmentConfig& cfg : impairments) {
    std::printf("impair %s\n", cfg.to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A file that cannot be written (or a trace the library rejects) ends the
  // run with "tnb_gen: <reason>" and exit status 1, not an abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tnb_gen: %s\n", e.what());
    return 1;
  }
}
