// tnb_eval — decode a trace corpus produced by tnb_gen and score every
// scheme against the ground truth.
//
//   tnb_eval --in PREFIX [--sf N] [--cr N] [--bw KHZ] [--osf N]
//            [--scheme tnb|thrive|sibling|lorophy|cic|cic+|aligntrack|
//                      aligntrack+|all]
//            [--antennas N] [--implicit-len BYTES] [--jobs N]
//            [--metrics-file FILE] [--wire-format]
//            [--impair SPEC]... [--impair-seed N]
//
// --impair degrades the trace before decoding with receiver-side
// tnb::impair stages (iq_imbalance, quantize, clock_drift) or injects
// inter_sf interference, in flag order — the same specs tnb_gen takes.
// Transmitter-side stages (phase_noise, doppler) need packet boundaries
// and are rejected here; apply them at synthesis with tnb_gen --impair.
// --impair-seed (default 1) seeds the chain's own RNG.
//
// --wire-format decodes with the gr-lora-sdr wire format (lora::Coding::kWire)
// instead of the paper frame format — for corpora written by
// tnb_gen --wire-format. Orthogonal to --scheme: every scheme keeps its
// assigner/sync/decoder, only the frame coding changes.
//
// --jobs N (default: TNB_JOBS env var, else 1) decodes the schemes
// concurrently; each scheme keeps its own RNG and stats, so the printed
// rows are identical for every jobs value. Per-stage pipeline timing is
// recorded into a tnb::obs registry (merged over all schemes and jobs)
// and summarized after the result table; --metrics-file additionally
// writes the full Prometheus text snapshot.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/factories.hpp"
#include "baselines/sic.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dsp/fft_backend.hpp"
#include "impair/impairment.hpp"
#include "obs/stage_timer.hpp"
#include "sim/ground_truth.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_io.hpp"

namespace {

[[noreturn]] void usage() {
  // The scheme list comes from base::all_schemes() so a new scheme in the
  // factory automatically shows up here (and in parse errors below).
  std::fprintf(stderr,
               "usage: tnb_eval --in PREFIX [--sf N] [--cr N] [--bw KHZ] "
               "[--osf N] [--scheme NAME|all]\n"
               "                [--antennas N] [--implicit-len BYTES] "
               "[--jobs N]\n"
               "                [--metrics-file FILE] [--wire-format] "
               "[--fft-backend NAME]\n"
               "                [--impair SPEC]... [--impair-seed N]\n"
               "schemes: %s, sic, all\n"
               "fft backends: %s (default: TNB_FFT_BACKEND env var, else "
               "scalar)\n"
               "impair specs (receiver-side): %s\n",
               tnb::base::scheme_cli_list().c_str(),
               tnb::dsp::fft_backend_names().c_str(),
               tnb::impair::impairment_cli_help().c_str());
  std::exit(2);
}

std::vector<tnb::base::Scheme> parse_schemes(const std::string& name) {
  if (name == "all") return tnb::base::all_schemes();
  if (const auto s = tnb::base::parse_scheme(name)) return {*s};
  std::fprintf(stderr, "tnb_eval: unknown scheme '%s' (valid: %s, sic, all)\n",
               name.c_str(), tnb::base::scheme_cli_list().c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tnb;

  std::string in, scheme = "tnb", metrics_file;
  lora::Params params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  unsigned antennas = 1;
  int implicit_len = 0;
  bool wire_format = false;
  int jobs = common::default_jobs();
  std::vector<impair::ImpairmentConfig> impairments;
  std::uint64_t impair_seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--in") in = value();
    else if (arg == "--sf") params.sf = std::strtoul(value(), nullptr, 10);
    else if (arg == "--cr") params.cr = std::strtoul(value(), nullptr, 10);
    else if (arg == "--bw") params.bandwidth_hz = std::atof(value()) * 1e3;
    else if (arg == "--osf") params.osf = std::strtoul(value(), nullptr, 10);
    else if (arg == "--scheme") scheme = value();
    else if (arg == "--antennas") antennas = std::strtoul(value(), nullptr, 10);
    else if (arg == "--implicit-len") implicit_len = std::atoi(value());
    else if (arg == "--wire-format") wire_format = true;
    else if (arg == "--jobs") jobs = std::atoi(value());
    else if (arg == "--impair") {
      try {
        impairments.push_back(impair::parse_impairment(value()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tnb_eval: %s\n", e.what());
        return 2;
      }
    }
    else if (arg == "--impair-seed")
      impair_seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--metrics-file") metrics_file = value();
    else if (arg == "--fft-backend") {
      const char* name = value();
      if (!dsp::set_fft_backend(name)) {
        std::fprintf(stderr, "tnb_eval: unknown fft backend '%s' (valid: %s)\n",
                     name, dsp::fft_backend_names().c_str());
        return 2;
      }
    }
    else usage();
  }
  if (in.empty()) usage();
  if (jobs < 1) jobs = 1;

  // Installed before any receiver is constructed (handles resolve at
  // construction); all schemes and worker threads record into it.
  obs::Registry registry;
  obs::Registry::set_global(&registry);

  sim::Trace trace;
  trace.params = params;
  trace.iq = sim::read_trace_i16(in + ".bin");
  for (unsigned a = 1; a < antennas; ++a) {
    trace.extra_antennas.push_back(
        sim::read_trace_i16(in + ".ant" + std::to_string(a) + ".bin"));
  }
  trace.packets = sim::read_ground_truth_csv(in + ".csv");

  if (!impairments.empty()) {
    try {
      impair::Pipeline chain(impairments, params, &registry);
      if (chain.has_per_packet()) {
        std::fprintf(stderr,
                     "tnb_eval: phase_noise/doppler are transmitter-side; "
                     "apply them with tnb_gen --impair\n");
        return 2;
      }
      std::vector<IqBuffer*> antenna_bufs{&trace.iq};
      for (IqBuffer& a : trace.extra_antennas) antenna_bufs.push_back(&a);
      Rng impair_rng(impair_seed);
      chain.apply_trace(antenna_bufs, impair_rng);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tnb_eval: %s\n", e.what());
      return 2;
    }
  }
  std::printf("trace: %zu samples, %zu ground-truth packets\n",
              trace.iq.size(), trace.packets.size());

  std::printf("%-14s %10s %8s %8s %8s\n", "scheme", "decoded", "PRR",
              "false", "2nd-pass");
  if (scheme == "sic") {
    // Extension baseline (mLoRa-style), not part of the paper's set.
    base::SicDecoder sic(params);
    Rng rng(7);
    const auto decoded = sic.decode(trace.iq, rng);
    const auto result = sim::evaluate(trace, decoded);
    std::printf("%-14s %6zu/%-3zu %8.2f %8zu %8s\n", "SIC",
                result.decoded_unique, result.transmitted, result.prr,
                result.false_packets, "-");
    return 0;
  }

  const std::vector<base::Scheme> schemes = parse_schemes(scheme);
  struct Row {
    sim::EvalResult result;
    rx::ReceiverStats stats;
    double wall_s = 0.0;
  };
  std::vector<Row> rows(schemes.size());

  // Each scheme decode is independent (own receiver, own RNG, own stats):
  // fan them out and print the rows in scheme order afterwards, so the
  // output is identical for every --jobs value.
  const auto t0 = std::chrono::steady_clock::now();
  common::parallel_for(schemes.size(), jobs, [&](std::size_t i) {
    const auto t_run = std::chrono::steady_clock::now();
    std::optional<rx::ImplicitHeader> implicit;
    if (implicit_len > 0) {
      implicit = rx::ImplicitHeader{static_cast<std::uint8_t>(implicit_len),
                                    static_cast<std::uint8_t>(params.cr)};
    }
    rx::Receiver receiver = base::make_receiver(
        schemes[i], params, implicit,
        wire_format ? lora::Coding::kWire : lora::Coding::kPaper);
    Rng rng(7);
    const auto decoded =
        receiver.decode_multi(trace.antenna_spans(), rng, &rows[i].stats);
    rows[i].result = sim::evaluate(trace, decoded);
    rows[i].wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_run)
            .count();
  });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  rx::ReceiverStats total;
  double seq = 0.0;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const Row& row = rows[i];
    std::printf("%-14s %6zu/%-3zu %8.2f %8zu %8zu\n",
                base::scheme_name(schemes[i]).c_str(),
                row.result.decoded_unique, row.result.transmitted,
                row.result.prr, row.result.false_packets,
                row.stats.decoded_second_pass);
    total += row.stats;
    seq += row.wall_s;
  }
  // Same merged-stats JSON schema as tnb_streamd's stats line (the shared
  // ReceiverStats::to_json format, documented in DESIGN.md).
  std::printf("aggregate %s\n", total.to_json().c_str());
  // The runs= line is excluded from the decode-ab-diff comparison, so the
  // backend name (and timing) may vary without breaking the bit-identity
  // gate on the result rows above.
  std::printf("runs=%zu jobs=%d wall=%.2fs speedup=%.2fx fft_backend=%s\n",
              schemes.size(), jobs, wall, wall > 0.0 ? seq / wall : 1.0,
              dsp::active_fft_backend().name());

  // Per-stage pipeline timing, merged over every scheme (seconds). All
  // seven stages are registered eagerly, so a stage a scheme never enters
  // still prints, as n=0.
  const obs::Snapshot snap = registry.snapshot();
  for (const obs::Snapshot::Metric& m : snap.metrics) {
    if (m.name != obs::kStageMetricName) continue;
    const char* stage = m.labels.empty() ? "?" : m.labels.front().second.c_str();
    std::printf("stage %-12s %s\n", stage, obs::histogram_summary(m).c_str());
  }
  if (!metrics_file.empty()) {
    std::ofstream out(metrics_file);
    if (!out) {
      std::fprintf(stderr, "tnb_eval: cannot write %s\n", metrics_file.c_str());
      return 1;
    }
    out << snap.to_prometheus();
  }
  return 0;
}
