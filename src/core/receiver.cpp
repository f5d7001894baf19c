#include "core/receiver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/math_util.hpp"
#include "core/sibling.hpp"
#include "dsp/fft_backend.hpp"
#include "core/snr.hpp"
#include "obs/json.hpp"

namespace tnb::rx {
namespace {

/// Receiver-side tracking state of one detected packet.
struct Tracked {
  PacketContext ctx;
  bool dead = false;         ///< header failed / gave up
  bool decoded = false;
  lora::Header header;
  bool have_header = false;
  std::size_t header_syms = lora::kHeaderSymbols;  ///< 0 in implicit mode
  std::vector<int> bins;     ///< assigned peak bin per data symbol (-1 unset)
  std::vector<std::uint8_t> payload;  ///< app bytes once decoded
  std::size_t rescued = 0;

  explicit Tracked(PacketContext c) : ctx(std::move(c)) {}

  std::uint32_t bin_at(int d) const {
    return static_cast<std::uint32_t>(bins[static_cast<std::size_t>(d)]);
  }
};

}  // namespace

std::string ReceiverStats::to_json() const {
  const std::size_t rescued_codewords = std::accumulate(
      rescued_per_packet.begin(), rescued_per_packet.end(), std::size_t{0});
  // Written with obs::JsonWriter, like the tools' stats lines — schema
  // pinned by tests/test_obs.cpp (ReceiverStatsJson).
  obs::JsonWriter w;
  w.begin_object();
  w.field("detected", detected);
  w.field("header_ok", header_ok);
  w.field("crc_ok", crc_ok);
  w.field("decoded_first_pass", decoded_first_pass);
  w.field("decoded_second_pass", decoded_second_pass);
  w.key("bec").begin_object();
  w.field("delta_prime", bec.delta_prime);
  w.field("delta1", bec.delta1);
  w.field("delta2", bec.delta2);
  w.field("delta3", bec.delta3);
  w.field("crc_checks", bec.crc_checks);
  w.field("blocks_no_repair", bec.blocks_no_repair);
  w.field("candidate_blocks", bec.candidate_blocks);
  w.end_object();
  // rescued_per_packet summarized as its length and sum (Fig. 16 keeps
  // the full vector; the stats line only needs the totals).
  w.field("rescued_packets", rescued_per_packet.size());
  w.field("rescued_codewords", rescued_codewords);
  w.end_object();
  return w.take();
}

Receiver::Receiver(lora::Params p, ReceiverOptions opt)
    : p_(p),
      opt_(opt),
      // Validates p.
      codec_({p_, opt_.use_bec, opt_.implicit_header, opt_.coding}) {
  obs::Registry* reg = obs::resolve(opt_.metrics);
  obs_.stages = obs::StageTimer::for_registry(reg, opt_.metric_labels);
  if (reg != nullptr) {
    const obs::Labels& extra = opt_.metric_labels;
    const auto with_extra = [&extra](obs::Labels labels) {
      labels.insert(labels.end(), extra.begin(), extra.end());
      return labels;
    };
    obs_.detected = reg->counter("tnb_rx_detected_total",
                                 "Packets detected (after dedup)", extra);
    obs_.header_ok =
        reg->counter("tnb_rx_header_ok_total", "PHY headers decoded", extra);
    obs_.crc_ok = reg->counter("tnb_rx_crc_ok_total",
                               "Payload CRC16 checks passed", extra);
    obs_.decoded_first_pass =
        reg->counter("tnb_rx_decoded_total", "Packets fully decoded",
                     with_extra({{"pass", "first"}}));
    obs_.decoded_second_pass =
        reg->counter("tnb_rx_decoded_total", "Packets fully decoded",
                     with_extra({{"pass", "second"}}));
    // Info-style gauge: constant 1, the label carries which FFT backend
    // the demod hot path dispatches to (scalar / avx2 / ...).
    reg->gauge("tnb_fft_backend_info", "Active dsp::FftBackend (info label)",
               with_extra({{"backend", dsp::active_fft_backend().name()}}))
        .set(1.0);
  }
}

std::vector<sim::DecodedPacket> Receiver::decode(
    std::span<const cfloat> trace, Rng& rng, ReceiverStats* stats) const {
  return decode_multi({trace}, rng, stats);
}

std::vector<DetectedPacket> Receiver::detect(
    std::vector<std::span<const cfloat>> antennas,
    std::span<const WindowPeaks> scan) const {
  std::vector<DetectedPacket> detections;
  if (antennas.empty() || antennas[0].empty()) return detections;
  if (opt_.sync != nullptr) {
    // The scheme's own front end: the FrameSync owns detection AND
    // refinement per antenna; only the cross-antenna merge below is shared.
    const std::unique_ptr<FrameSync> fs = opt_.sync(p_);
    for (const auto& ant : antennas) {
      std::vector<DetectedPacket> found;
      {
        const obs::ScopedSpan span(obs_.stages.detect);
        found = fs->sync(ant);
      }
      detections.insert(detections.end(), found.begin(), found.end());
    }
  } else {
    const Detector detector(p_, opt_.detector);
    const FracSync fsync(p_);
    lora::Workspace ws(p_);  // one workspace serves the whole detection pass

    // Detect on every antenna: a packet faded on one antenna during its
    // preamble is often clean on another (the diversity TnB2ant relies on).
    for (const auto& ant : antennas) {
      std::vector<DetectedPacket> found;
      {
        const obs::ScopedSpan span(obs_.stages.detect);
        found = &ant == &antennas[0] && !scan.empty()
                    ? detector.detect(ant, scan, ws)
                    : detector.detect(ant, ws);
      }
      if (opt_.use_frac_sync) {
        const obs::ScopedSpan span(obs_.stages.frac_sync);
        for (DetectedPacket& det : found) {
          const FracSyncResult r =
              fsync.refine(ant, det.t0, det.cfo_cycles, ws);
          // An ungated refine (the Q* gate passed nowhere) returns
          // dt = df = 0: the detection keeps its coarse estimate, and the
          // guard only skips two additions of zero.
          if (r.gated) {
            det.t0 += r.dt;
            det.cfo_cycles += r.df;
          }
        }
      }
      detections.insert(detections.end(), found.begin(), found.end());
    }
  }
  if (antennas.size() > 1) {
    // Merge duplicates across antennas (same packet, near-equal timing/CFO).
    std::sort(detections.begin(), detections.end(),
              [](const DetectedPacket& a, const DetectedPacket& b) {
                return a.t0 < b.t0;
              });
    std::vector<DetectedPacket> merged;
    const double t_tol = 0.25 * static_cast<double>(p_.sps());
    for (const DetectedPacket& det : detections) {
      bool dup = false;
      for (DetectedPacket& kept : merged) {
        if (std::abs(kept.t0 - det.t0) < t_tol &&
            std::abs(kept.cfo_cycles - det.cfo_cycles) < 2.0) {
          if (det.validation_score > kept.validation_score ||
              (det.validation_score == kept.validation_score &&
               det.strength > kept.strength)) {
            kept = det;
          }
          dup = true;
          break;
        }
      }
      if (!dup) merged.push_back(det);
    }
    detections = std::move(merged);
  }
  return detections;
}

std::vector<sim::DecodedPacket> Receiver::decode_multi(
    std::vector<std::span<const cfloat>> antennas, Rng& rng,
    ReceiverStats* stats) const {
  return decode_with_detections(antennas, detect(antennas), rng, stats);
}

std::vector<sim::DecodedPacket> Receiver::decode_with_detections(
    std::vector<std::span<const cfloat>> antennas,
    std::vector<DetectedPacket> detections, Rng& rng,
    ReceiverStats* stats) const {
  std::vector<sim::DecodedPacket> out;
  if (antennas.empty() || antennas[0].empty()) return out;
  if (stats != nullptr) stats->detected += detections.size();
  obs_.detected.inc(detections.size());
  if (detections.empty()) return out;

  SigCalc sig(p_, antennas);
  sig.set_stage_histogram(obs_.stages.sigcalc);

  std::vector<Tracked> pkts;
  std::vector<PacketContext> contexts;
  pkts.reserve(detections.size());
  const std::optional<lora::Header> implicit = codec_.implicit_header();
  for (const DetectedPacket& det : detections) {
    PacketContext ctx(p_, det);
    pkts.emplace_back(ctx);
    Tracked& t = pkts.back();
    t.header_syms = codec_.header_symbols();
    if (implicit.has_value()) {
      t.header = *implicit;
      t.have_header = true;
      t.ctx.n_data_symbols =
          static_cast<int>(codec_.payload_symbols(t.header));
    }
    contexts.push_back(t.ctx);
  }

  std::vector<PeakHistory> history(pkts.size());
  {
    // Preamble-height bootstrap is uncached signal calculation.
    const obs::ScopedSpan span(obs_.stages.sigcalc);
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      const std::vector<double> pre = sig.preamble_heights(pkts[i].ctx);
      history[i].bootstrap(pre);
    }
  }

  const double sps = static_cast<double>(p_.sps());
  const std::size_t n_checkpoints = sig.trace_len() / p_.sps() + 2;
  const std::unique_ptr<PeakAssigner> assigner =
      opt_.assigner != nullptr
          ? opt_.assigner(p_)
          : std::make_unique<Thrive>(p_, opt_.thrive);

  // Decodes header / payload of packet `pi` as soon as enough symbols are
  // assigned. Returns true if the packet reached a terminal state.
  auto try_decode = [&](std::size_t pi, bool second_pass) {
    Tracked& t = pkts[pi];
    if (t.dead || t.decoded) return;

    // Header: the codec's leading data symbols (none in implicit mode).
    if (!t.have_header) {
      if (t.bins.size() < t.header_syms) return;
      bool complete = true;
      std::vector<std::uint32_t> hs(t.header_syms);
      for (std::size_t d = 0; d < t.header_syms; ++d) {
        if (t.bins[d] < 0) {
          complete = false;
          break;
        }
        hs[d] = t.bin_at(static_cast<int>(d));
      }
      if (!complete) return;
      std::optional<lora::Header> hdr;
      {
        const obs::ScopedSpan span(obs_.stages.header);
        hdr = codec_.decode_header(hs,
                                   stats != nullptr ? &stats->bec : nullptr);
      }
      if (!hdr.has_value()) {
        if (static_cast<int>(t.bins.size()) >= kMaxTrackedSymbols) {
          t.dead = true;
        }
        // Header may still resolve on the second pass with better masking.
        if (!second_pass && !opt_.two_pass) t.dead = true;
        if (second_pass) t.dead = true;
        return;
      }
      t.header = *hdr;
      t.have_header = true;
      const int n_data = static_cast<int>(
          t.header_syms + codec_.payload_symbols(t.header));
      t.ctx.n_data_symbols = n_data;
      contexts[pi].n_data_symbols = n_data;
      if (stats != nullptr) ++stats->header_ok;
      obs_.header_ok.inc();
    }

    // Payload: the codec consumes the whole frame's bins (the wire format's
    // header block carries payload nibbles in its spare rows).
    const int n_data = t.ctx.n_data_symbols;
    if (static_cast<int>(t.bins.size()) < n_data) return;
    // Assignments arrive in symbol order, so by the time the tail is set the
    // header bins are too; the full check guards the second pass, where the
    // header survives the bin reset.
    for (int d = 0; d < n_data; ++d) {
      if (t.bins[static_cast<std::size_t>(d)] < 0) return;
    }
    std::vector<std::uint32_t> fs;
    fs.reserve(static_cast<std::size_t>(n_data));
    for (int d = 0; d < n_data; ++d) fs.push_back(t.bin_at(d));
    FrameDecodeResult r;
    {
      const obs::ScopedSpan span(obs_.stages.bec);
      r = codec_.decode_frame(fs, t.header, rng,
                              stats != nullptr ? &stats->bec : nullptr);
    }
    if (!r.ok) {
      if (second_pass || !opt_.two_pass) t.dead = true;
      return;
    }
    t.decoded = true;
    t.rescued = r.rescued_codewords;
    t.payload = std::move(r.payload);
    if (stats != nullptr) {
      ++stats->crc_ok;
      if (second_pass) {
        ++stats->decoded_second_pass;
      } else {
        ++stats->decoded_first_pass;
      }
      stats->rescued_per_packet.push_back(r.rescued_codewords);
    }
    obs_.crc_ok.inc();
    (second_pass ? obs_.decoded_second_pass : obs_.decoded_first_pass).inc();
  };

  // Known-peak masks for symbol (pi, window W): preamble overlaps of every
  // other packet plus assigned bins of decoded packets.
  auto masks_for = [&](std::size_t pi, double w) {
    std::vector<double> masks;
    const double alpha_i = pkts[pi].ctx.alpha_at(w);
    const std::size_t n = p_.n_bins();
    for (std::size_t k = 0; k < pkts.size(); ++k) {
      if (k == pi) continue;
      const Tracked& other = pkts[k];
      const double t0k = other.ctx.t0();
      const double w_end = w + sps;
      // Preamble upchirps [t0, t0+8T).
      const double up_end = t0k + 8.0 * sps;
      if (w < up_end && w_end > t0k) {
        masks.push_back(map_bin(0.0, other.ctx.alpha_at(t0k), alpha_i, n));
      }
      // Sync symbols at slots 8 and 9 (shifts 8 and 16).
      for (int s = 0; s < 2; ++s) {
        const double ss = t0k + (8.0 + s) * sps;
        if (w < ss + sps && w_end > ss) {
          const double shift = s == 0 ? lora::kSyncShift1 : lora::kSyncShift2;
          masks.push_back(map_bin(shift, other.ctx.alpha_at(ss), alpha_i, n));
        }
      }
      // Assigned bins of decoded packets.
      if (other.decoded) {
        const double ds = other.ctx.data_start();
        const int d0 = static_cast<int>(std::floor((w - ds) / sps));
        for (int d = d0; d <= d0 + 1; ++d) {
          if (d < 0 || d >= static_cast<int>(other.bins.size())) continue;
          const int bin = other.bins[static_cast<std::size_t>(d)];
          if (bin < 0) continue;
          const double slot_start = other.ctx.data_symbol_start(d);
          if (w < slot_start + sps && w_end > slot_start) {
            masks.push_back(map_bin(static_cast<double>(bin),
                                    other.ctx.alpha_at(slot_start), alpha_i, n));
          }
        }
      }
    }
    return masks;
  };

  auto run_pass = [&](bool second_pass) {
    for (std::size_t j = 0; j < n_checkpoints; ++j) {
      const double c = static_cast<double>(j) * sps;
      std::vector<ActiveSymbol> active;
      for (std::size_t pi = 0; pi < pkts.size(); ++pi) {
        Tracked& t = pkts[pi];
        if (t.dead || t.decoded) continue;
        int limit = t.ctx.n_data_symbols;
        if (limit < 0) limit = kMaxTrackedSymbols;
        const auto d = t.ctx.data_symbol_at(c, limit);
        if (!d.has_value()) continue;
        active.push_back({static_cast<int>(pi), *d,
                          t.ctx.data_symbol_start(*d)});
      }
      if (active.empty()) continue;
      std::sort(active.begin(), active.end(),
                [](const ActiveSymbol& a, const ActiveSymbol& b) {
                  return a.window_start < b.window_start;
                });

      std::vector<std::vector<double>> masks(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) {
        masks[i] = masks_for(static_cast<std::size_t>(active[i].packet),
                             active[i].window_start);
      }

      AssignInput in;
      in.symbols = active;
      in.contexts = contexts;
      in.masked_bins = masks;
      in.sig = &sig;
      in.history = history;
      in.second_pass = second_pass;
      std::vector<Assignment> assignments;
      {
        // Includes the sigcalc spans of cache misses it triggers (stage
        // sums overlap; see obs/stage_timer.hpp).
        const obs::ScopedSpan span(obs_.stages.assign);
        assignments = assigner->assign(in);
      }

      for (const Assignment& a : assignments) {
        Tracked& t = pkts[static_cast<std::size_t>(a.packet)];
        if (t.bins.size() <= static_cast<std::size_t>(a.data_idx)) {
          t.bins.resize(static_cast<std::size_t>(a.data_idx) + 1, -1);
        }
        t.bins[static_cast<std::size_t>(a.data_idx)] = a.bin;
        if (!second_pass) {
          history[static_cast<std::size_t>(a.packet)].record(a.data_idx,
                                                             a.height);
        }
        try_decode(static_cast<std::size_t>(a.packet), second_pass);
      }
    }
  };

  run_pass(/*second_pass=*/false);

  if (opt_.two_pass) {
    bool any_failed = false;
    for (Tracked& t : pkts) {
      if (!t.decoded) {
        any_failed = true;
        t.dead = false;        // give failed packets another chance
        std::fill(t.bins.begin(), t.bins.end(), -1);
      }
    }
    if (any_failed) {
      const obs::ScopedSpan span(obs_.stages.second_pass);
      run_pass(/*second_pass=*/true);
    }
  }

  for (const Tracked& t : pkts) {
    if (t.decoded) {
      out.push_back({t.payload, t.ctx.t0(),
                     estimate_snr_db(t.ctx, sig),
                     p_.cfo_cycles_to_hz(t.ctx.cfo_cycles())});
    }
  }
  return out;
}

}  // namespace tnb::rx
