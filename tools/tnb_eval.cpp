// tnb_eval — decode a trace corpus produced by tnb_gen and score every
// scheme against the ground truth. `tnb_eval --help` lists the flags.
//
// --scheme takes one scheme of base::all_schemes() (the paper's TnB,
// Thrive, Sibling, LoRaPHY, CIC and AlignTrack* families plus the CoRa and
// LZn peers; `tnb_eval --help` lists their tokens), `sic` (base::SicDecoder,
// the mLoRa-style successive-cancellation extension, decoding antenna 0
// only) or `all` (every registered scheme); the default is tnb.
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
// assigner/sync/decoder, only the frame coding changes. --wire-format and
// --implicit-len reach sic's cancellation rounds too.
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
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/factories.hpp"
#include "baselines/sic.hpp"
#include "cli.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dsp/fft_backend.hpp"
#include "impair/impairment.hpp"
#include "obs/stage_timer.hpp"
#include "sim/ground_truth.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_io.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace tnb;

  std::string in, scheme = "tnb", metrics_file;
  lora::Params params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  unsigned antennas = 1;
  std::uint8_t implicit_len = 0;
  lora::Coding coding = lora::Coding::kPaper;
  int jobs = common::default_jobs();
  std::vector<impair::ImpairmentConfig> impairments;
  std::uint64_t impair_seed = 1;

  const cli::Parser cli(
      "tnb_eval",
      {{"--in PREFIX", cli::text(in), true},
       cli::sf(params), cli::cr(params), cli::bw(params), cli::osf(params),
       // From the registry, so a new scheme shows up in --help and errors.
       cli::one_of("--scheme NAME", scheme,
                   base::scheme_cli_list() + ", sic, all"),
       {"--antennas N", cli::number(antennas, 1u, 64u)},
       cli::implicit_len(implicit_len),
       cli::jobs(jobs),
       {"--metrics-file FILE", cli::text(metrics_file)},
       cli::wire_format(coding), cli::fft_backend(), cli::impair(impairments),
       cli::impair_seed(impair_seed)});
  if (const auto status = cli.run(argc, argv)) return *status;
  std::optional<rx::ImplicitHeader> implicit;
  if (implicit_len > 0) {
    implicit = rx::ImplicitHeader{implicit_len,
                                  static_cast<std::uint8_t>(params.cr)};
  }

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
    base::SicDecoder sic(params, implicit, coding);
    Rng rng(7);
    const auto decoded = sic.decode(trace.iq, rng);
    const auto result = sim::evaluate(trace, decoded);
    std::printf("%-14s %6zu/%-3zu %8.2f %8zu %8s\n", "SIC",
                result.decoded_unique, result.transmitted, result.prr,
                result.false_packets, "-");
    return 0;
  }

  const std::vector<base::Scheme> schemes =
      scheme == "all" ? base::all_schemes()
                      : std::vector{base::parse_scheme(scheme).value()};
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
    rx::Receiver receiver =
        base::make_receiver(schemes[i], params, implicit, coding);
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

}  // namespace

int main(int argc, char** argv) {
  // A file that cannot be read (or a trace the library rejects) ends the
  // run with "tnb_eval: <reason>" and exit status 1, not an abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tnb_eval: %s\n", e.what());
    return 1;
  }
}
