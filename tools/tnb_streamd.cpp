// tnb_streamd — live gateway pipeline daemon: decode an int16 IQ stream
// (file or stdin) continuously with bounded memory. `tnb_streamd --help`
// lists the flags.
//
// --impair degrades the incoming stream before the ring with receiver-side
// tnb::impair stages (iq_imbalance, quantize, clock_drift), in flag order,
// state carried across chunks — the same specs tnb_gen takes. Synthesis-
// side stages (phase_noise, doppler, inter_sf) are rejected; apply those
// with tnb_gen --impair. --impair-seed (default 1) seeds the chain's RNG.
// Single-channel only: the wideband composite of --channels N runs at a
// different rate than the per-channel chain models.
//
// --wire-format decodes with the gr-lora-sdr wire format (lora::Coding::kWire)
// instead of the paper frame format — the counterpart of tnb_gen
// --wire-format, and what real gateway captures use. It composes with the
// fleet flags (every lane gets a wire codec) and with --implicit-len.
//
// --channels N > 1 switches to the gateway-fleet pipeline (tnb::fleet):
// the input is an interleaved N-channel wideband stream at N x OSF x BW
// (the format tnb_gen --channels writes), split by the block-DFT
// channelizer into per-channel streams and decoded by one StreamingReceiver
// lane per (channel, SF in --sfs) on --lanes workers. Decoded packets
// print (with channel/SF tags) from the merged ledger after the stream
// ends, in the canonical (start, channel) order; the periodic `stats` line
// carries FleetStats::to_json plus the ring counters. Without --channels
// > 1, --sfs exits 2: a single channel decodes at --sf.
//
// Without --in (or with `--in -`) samples are read from stdin, so a trace
// can be piped straight through:  tnb_gen ... && tnb_streamd < trace.bin
// A file named by --in is read the same way; one that cannot be opened or
// read (a directory, say) exits 1 with `tnb_streamd: <reason>`.
//
// A producer thread feeds the SPSC ring buffer (blocking backpressure by
// default; --drop switches to the radio-front-end policy of dropping
// what does not fit); the main thread drains the ring into the
// StreamingReceiver. Every decoded packet prints one `pkt` line as soon as
// its segment resolves; a `stats` JSON line (StreamingStats::to_json plus
// the ring counters) prints every --stats-interval seconds of stream time
// and once at the end. --metrics-file rewrites a Prometheus text snapshot
// of the tnb::obs registry (stage timings, ring and stream counters) on
// every stats tick and at exit; --metrics-history PREFIX additionally
// keeps every snapshot as PREFIX.NNN.prom (tnb_promcheck verifies counter
// monotonicity across the sequence). A snapshot that cannot be written
// prints `tnb_streamd: cannot write <path>`; if the final one fails, the
// run exits 1, as tnb_eval does.
//
// SIGINT/SIGTERM trigger a clean shutdown: the ring is closed (remaining
// producer samples are counted as dropped), the pipeline winds down, and
// the final stats line and metrics file are always emitted before exit.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "dsp/fft_backend.hpp"
#include "fleet/fleet.hpp"
#include "impair/impairment.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/trace_builder.hpp"
#include "stream/impaired_source.hpp"
#include "stream/streaming_receiver.hpp"

namespace {

// Shared between the main thread and the signal-watcher thread. Static
// duration so the watcher can consult them even while main() is returning.
std::mutex g_stats_mu;
std::atomic<bool> g_done{false};  ///< final stats line already emitted

/// Prints one decoded packet as a `pkt` line: node/seq for an application
/// payload, the hex payload otherwise. A fleet packet's `origin` adds its
/// channel and SF after the start time.
void print_pkt(const tnb::sim::DecodedPacket& pkt, double fs,
               const tnb::fleet::LedgerEntry* origin = nullptr) {
  std::printf("pkt t=%.4fs", pkt.start_sample / fs);
  if (origin != nullptr) {
    std::printf(" ch=%u sf=%u", origin->channel, origin->sf);
  }
  std::uint16_t node = 0, seq = 0;
  const bool app = tnb::sim::parse_app_payload(pkt.payload, node, seq);
  if (app) std::printf(" node=%u seq=%u", node, seq);
  std::printf(" snr=%.1fdB cfo=%.0fHz len=%zu", pkt.snr_db, pkt.cfo_hz,
              pkt.payload.size());
  if (!app) {
    std::printf(" payload=");
    for (std::uint8_t b : pkt.payload) std::printf("%02x", b);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tnb;

  std::string in = "-";
  std::string metrics_file, metrics_history;
  lora::Params params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  double scale = 1024.0, stats_interval_s = 1.0;
  std::size_t chunk = 0, ring_capacity = 0;
  stream::StreamingOptions sopt;
  bool drop = false, quiet = false;
  lora::Coding coding = lora::Coding::kPaper;
  std::uint8_t implicit_len = 0;
  unsigned n_channels = 1;
  int lanes = 1;
  std::vector<unsigned> fleet_sfs;
  std::vector<impair::ImpairmentConfig> impairments;
  std::uint64_t impair_seed = 1;

  constexpr std::size_t kMaxSamples = std::size_t{1} << 30;
  const cli::Parser cli(
      "tnb_streamd",
      {{"--in FILE|-", cli::text(in)},
       cli::sf(params), cli::cr(params), cli::bw(params), cli::osf(params),
       {"--scale S", cli::number(scale, 1e-6, 1e9)},
       {"--chunk SAMPLES", cli::number(chunk, std::size_t{0}, kMaxSamples)},
       {"--window SYMBOLS",
        cli::number(sopt.window_symbols, std::size_t{0}, std::size_t{65536})},
       {"--ring SAMPLES",
        cli::number(ring_capacity, std::size_t{0}, kMaxSamples)},
       {"--stats-interval SECONDS", cli::number(stats_interval_s, 0.0, 1e9)},
       {"--metrics-file FILE", cli::text(metrics_file)},
       {"--metrics-history PREFIX", cli::text(metrics_history)},
       {"--drop", cli::set(drop)},
       cli::implicit_len(implicit_len),
       {"--seed N", cli::number<std::uint64_t>(sopt.rng_seed, 0, UINT64_MAX)},
       {"--quiet", cli::set(quiet)}, cli::wire_format(coding),
       {"--channels N", cli::number(n_channels, 1u, 1024u)},
       {"--sfs LIST", cli::numbers(fleet_sfs, 5, 12)},
       {"--lanes J", cli::number(lanes, 0, 1024)}, cli::fft_backend(),
       cli::impair(impairments), cli::impair_seed(impair_seed)});
  if (const auto status = cli.run(argc, argv)) return *status;
  const bool fleet_mode = n_channels > 1;
  if (!impairments.empty() && fleet_mode) {
    std::fprintf(stderr,
                 "tnb_streamd: --impair is single-channel only (the wideband "
                 "composite runs at a different sample rate)\n");
    return 2;
  }
  if (!fleet_sfs.empty() && !fleet_mode) {
    std::fprintf(stderr,
                 "tnb_streamd: --sfs: needs --channels > 1 (a single channel "
                 "decodes at --sf)\n");
    return 2;
  }
  if (chunk == 0) chunk = 16 * params.sps() * (fleet_mode ? n_channels : 1);
  if (ring_capacity == 0) ring_capacity = 8 * chunk;

  // The registry must be installed before the receiver and ring are
  // constructed: their metric handles resolve against the global exactly
  // once, at construction.
  obs::Registry registry;
  obs::Registry::set_global(&registry);

  rx::ReceiverOptions ropt;
  if (implicit_len > 0) {
    ropt.implicit_header =
        rx::ImplicitHeader{implicit_len, static_cast<std::uint8_t>(params.cr)};
  }
  ropt.coding = coding;
  sopt.keep_packets = false;  // a daemon must not grow with uptime

  const double fs = params.sample_rate_hz();   // channel rate
  const double in_rate = fs * n_channels;      // input stream rate

  std::optional<stream::StreamingReceiver> receiver;
  std::unique_ptr<fleet::Fleet> gw;
  if (fleet_mode) {
    fleet::FleetOptions fopt;
    fopt.n_channels = n_channels;
    fopt.sfs = fleet_sfs.empty() ? std::vector<unsigned>{params.sf}
                                 : fleet_sfs;
    fopt.lanes = lanes;
    fopt.stream = sopt;
    fopt.receiver = ropt;
    try {
      gw = std::make_unique<fleet::Fleet>(params, fopt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tnb_streamd: %s\n", e.what());
      return 2;
    }
  } else {
    receiver.emplace(params, ropt, sopt);
    receiver->set_packet_callback([&](const sim::DecodedPacket& pkt) {
      if (quiet) return;
      print_pkt(pkt, fs);
      std::fflush(stdout);
    });
  }

  std::ifstream file;
  std::istream* input = &std::cin;
  if (in == "-") {
    std::ios::sync_with_stdio(false);
  } else {
    file.open(in, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "tnb_streamd: cannot open %s\n", in.c_str());
      return 1;
    }
    input = &file;
  }
  std::unique_ptr<stream::ChunkSource> source =
      std::make_unique<stream::IstreamSource>(*input, scale);
  if (!impairments.empty()) {
    try {
      source = std::make_unique<stream::ImpairedSource>(
          std::move(source), impairments, params, impair_seed, &registry);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tnb_streamd: %s\n", e.what());
      return 2;
    }
  }

  stream::IqRing ring(ring_capacity);
  const std::size_t stats_interval_samples =
      stats_interval_s > 0.0
          ? static_cast<std::size_t>(stats_interval_s * in_rate)
          : 0;
  std::size_t next_stats_at = stats_interval_samples;

  // Both emitters are called with g_stats_mu held.
  auto print_stats = [&] {
    const stream::RingStats rs = ring.stats();
    obs::JsonWriter w;
    w.begin_object();
    // Before the "stream" key: the decode-ab-diff CI job extracts the
    // stats object from "stream" onward, so the backend label must not
    // land inside the compared span.
    w.field("fft_backend", dsp::active_fft_backend().name());
    if (fleet_mode) {
      w.key("fleet").raw(gw->stats().to_json());
    } else {
      w.key("stream").raw(receiver->stats().to_json());
    }
    w.key("ring");
    w.begin_object();
    w.field("capacity", static_cast<std::uint64_t>(rs.capacity));
    w.field("pushed", static_cast<std::uint64_t>(rs.pushed));
    w.field("popped", static_cast<std::uint64_t>(rs.popped));
    w.field("dropped", static_cast<std::uint64_t>(rs.dropped));
    w.field("high_water", static_cast<std::uint64_t>(rs.high_water));
    w.end_object();
    w.end_object();
    std::printf("stats %s\n", w.str().c_str());
    std::fflush(stdout);
  };
  // Writes the metrics file and the next history snapshot; false when one
  // of them could not be written (the reason is on stderr).
  std::size_t metrics_seq = 0;
  auto write_metrics = [&] {
    if (metrics_file.empty() && metrics_history.empty()) return true;
    const std::string text = registry.snapshot().to_prometheus();
    // Writes `body` to `path`; on failure names `shown` on stderr.
    auto write_file = [](const std::string& path, const std::string& body,
                         const std::string& shown) {
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "tnb_streamd: cannot write %s\n", shown.c_str());
        return false;
      }
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      return true;
    };
    bool ok = true;
    if (!metrics_file.empty()) {
      // Write-then-rename so a concurrent reader never sees a torn file.
      const std::string tmp = metrics_file + ".tmp";
      if (!write_file(tmp, text, metrics_file)) {
        ok = false;
      } else if (std::rename(tmp.c_str(), metrics_file.c_str()) != 0) {
        std::fprintf(stderr, "tnb_streamd: cannot write %s\n",
                     metrics_file.c_str());
        ok = false;
      }
    }
    if (!metrics_history.empty()) {
      char seq[16];
      std::snprintf(seq, sizeof seq, ".%03zu.prom", metrics_seq++);
      const std::string path = metrics_history + seq;
      ok = write_file(path, text, path) && ok;
    }
    return ok;
  };

  // Block SIGINT/SIGTERM in every thread and field them in a dedicated
  // watcher via sigwait. The watcher closes the ring, which unwinds the
  // pipeline cleanly (pop drains and returns 0, push counts the rest as
  // dropped), so the normal end-of-run path below emits the final stats
  // line and metrics file. Only if the pipeline fails to wind down (e.g.
  // the producer is stuck in a blocking read on an idle terminal) does the
  // watcher emit them best-effort itself and exit.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  std::thread([&ring, &print_stats, &write_metrics, sigs] {
    int sig = 0;
    if (sigwait(&sigs, &sig) != 0) return;
    ring.close();
    for (int i = 0; i < 100; ++i) {  // up to 5 s for a clean wind-down
      if (g_done.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::lock_guard<std::mutex> lock(g_stats_mu);
    if (g_done.load()) return;
    print_stats();
    write_metrics();
    std::fflush(nullptr);
    std::_Exit(0);
  }).detach();

  const auto on_chunk = [&](std::size_t consumed) {
    if (stats_interval_samples == 0) return;
    if (consumed >= next_stats_at) {
      std::lock_guard<std::mutex> lock(g_stats_mu);
      print_stats();
      write_metrics();
      next_stats_at = consumed + stats_interval_samples;
    }
  };
  try {
    if (fleet_mode) {
      fleet::run_fleet_pipeline(*source, ring, *gw, chunk,
                                /*backpressure=*/!drop, on_chunk);
    } else {
      stream::run_pipeline(*source, ring, *receiver, chunk,
                           /*backpressure=*/!drop, on_chunk);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tnb_streamd: %s\n", e.what());
    return 1;
  }

  {
    std::lock_guard<std::mutex> lock(g_stats_mu);
    std::size_t decoded = 0;
    if (fleet_mode) {
      // The ledger freezes at finish(); print it in its canonical
      // (start, channel) order — identical for every lane count.
      for (const auto& e : gw->ledger()) {
        ++decoded;
        if (!quiet) print_pkt(e.pkt, fs, &e);
      }
    } else {
      decoded = receiver->stats().packets_emitted;
    }
    print_stats();
    const bool metrics_ok = write_metrics();
    std::printf("decoded=%zu\n", decoded);
    g_done.store(true);
    // Like tnb_eval: a metrics file that cannot be written fails the run.
    if (!metrics_ok) return 1;
  }
  return 0;
}
