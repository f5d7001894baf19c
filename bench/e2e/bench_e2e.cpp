// bench_e2e — real-time-factor benchmark of the TnB receiver, end to end
// and layer by layer (README.md in this directory defines every metric and
// workload).
//
//   bench_e2e --workload NAME --seed S [--seconds T] [--traced] [--out FILE]
//
// A run sets up every sub-trace of the workload, then visits them in turn
// for T seconds. Each visit decodes the sub-trace two ways: offline with
// rx::Receiver::decode, and through stream::StreamingReceiver::push_chunk
// in 16-symbol chunks (the tnb_streamd default) plus finish. The receiver
// only ever sees the generated IQ; the ground truth is used for scoring
// alone. Metrics pool the sub-traces; a timing is the median of a
// sub-trace's passes, in reference seconds (host_speed.hpp): wall time
// corrected for how fast the shared host ran the bench's thread meanwhile.
//
// The traffic belongs to the workload: every run decodes the same packets,
// so the count metrics are exact per commit and the spread between runs is
// timing noise alone. --seed sets which sub-trace the visits start from.
//
// The default run measures the end-to-end metrics with tracing off: no obs
// registry and no bench spans. --traced instead gives the per-layer budget:
// it times the bench's own calls into each layer's public functions
// (Detector::detect, FracSync::refine, Receiver::decode_with_detections,
// StreamingReceiver::push_chunk/finish, Demodulator::dechirp_fft_batch_into)
// and reads the stage histograms the receiver already records.
//
// Every metric prints as `METRIC <name> <value> <unit>`, every correctness
// check as `CHECK <name> ok|FAIL`; --out writes the same as one JSON object.
// Any failed check exits 1. Single process, single thread.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/detect.hpp"
#include "core/frac_sync.hpp"
#include "core/receiver.hpp"
#include "dsp/fft_backend.hpp"
#include "lora/demodulator.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "sim/deployment.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"
#include "stream/streaming_receiver.hpp"

#include "host_speed.hpp"

namespace {

using namespace tnb;
using Clock = std::chrono::steady_clock;
using bench::host_speed::ref_s;
using bench::host_speed::ref_since;

/// Wall seconds, for the run's own time budget. Everything reported is in
/// reference seconds.
double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One benchmark workload. All use the Indoor deployment, CR 4, BW 125 kHz
/// and OSF 8; README.md records why each one exists.
struct Workload {
  const char* name;
  unsigned sf;
  double load_pps;
  double air_s;  ///< per sub-trace
  int traces;    ///< sub-traces per run
  const char* fft_backend;
};

// A sub-trace spans more than one streaming assembly window (320 symbols:
// 0.33 s at SF7, 0.66 s at SF8, 2.6 s at SF10), so every stream cuts
// segments as a gateway's would instead of decoding everything at finish.
// The sizes keep a round of passes over all sub-traces short enough that
// every sub-trace is decoded several times in a run.
constexpr Workload kWorkloads[] = {
    {"sf7_sparse", 7, 5.0, 10.0, 3, "auto"},
    {"sf8_dense", 8, 50.0, 2.0, 3, "auto"},
    {"sf10_scalar", 10, 8.0, 6.0, 1, "scalar"},
};

/// The node population and the traffic are drawn from these fixed seeds,
/// as a gateway serves a fixed set of nodes: PRR, precision and peak IQ
/// then repeat exactly from run to run, and a change to them is real.
constexpr std::uint64_t kPopulationSeed = 1;
constexpr std::uint64_t kTrafficSeed = 1;
/// Seed of the decode RNG (BEC's sampling fallback), offline and streamed.
constexpr std::uint64_t kDecodeSeed = 1;
/// Set-ups per run, so setup_s is a median: a workload with fewer
/// sub-traces sets one up again and discards the copy.
constexpr std::size_t kMinSetUps = 3;
constexpr std::size_t kChunkSymbols = 16;
constexpr std::size_t kWarmupSymbols = 64;
/// Share of a traced run spent on the dsp kernel rate.
constexpr double kDspShare = 0.1;
constexpr double kMaxUnaccounted = 0.05;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a, folded over bytes.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  }
};

/// Hash of the decoded set sorted by (start_sample, payload): equal digests
/// mean the same packets at bit-identical positions.
std::uint64_t decoded_digest(std::vector<sim::DecodedPacket> pkts) {
  std::sort(pkts.begin(), pkts.end(),
            [](const sim::DecodedPacket& a, const sim::DecodedPacket& b) {
              if (a.start_sample != b.start_sample) {
                return a.start_sample < b.start_sample;
              }
              return a.payload < b.payload;
            });
  Fnv f;
  for (const sim::DecodedPacket& p : pkts) {
    f.mix(&p.start_sample, sizeof p.start_sample);
    const std::uint64_t n = p.payload.size();
    f.mix(&n, sizeof n);
    f.mix(p.payload.data(), p.payload.size());
  }
  return f.h;
}

std::vector<std::vector<std::uint8_t>> payload_multiset(
    const std::vector<sim::DecodedPacket>& pkts) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(pkts.size());
  for (const sim::DecodedPacket& p : pkts) out.push_back(p.payload);
  std::sort(out.begin(), out.end());
  return out;
}

/// The ground-truth packet sim::evaluate credits `pkt` to, or nullptr.
const sim::TxPacketRecord* credited_record(const sim::Trace& trace,
                                           const sim::DecodedPacket& pkt) {
  if (sim::evaluate(trace, std::span(&pkt, 1)).decoded_unique == 0) {
    return nullptr;
  }
  std::uint16_t node = 0, seq = 0;
  sim::parse_app_payload(pkt.payload, node, seq);
  const auto it = std::find_if(
      trace.packets.begin(), trace.packets.end(),
      [&](const sim::TxPacketRecord& r) {
        return r.node_id == node && r.seq == seq;
      });
  return it != trace.packets.end() ? &*it : nullptr;
}

struct SetUp {
  sim::Trace trace;
  double setup_s = 0.0;
  double build_trace_s = 0.0;
};

/// Set-up of one sub-trace: build it, construct the receiver, and decode
/// its first 64 symbols so FFT plans and phasor caches are warm before
/// anything is timed.
SetUp set_up(const Workload& w, const lora::Params& p, std::uint64_t seed) {
  SetUp s;
  const auto t0 = Clock::now();
  Rng population(kPopulationSeed);
  sim::TraceOptions opt;
  opt.duration_s = w.air_s;
  opt.load_pps = w.load_pps;
  opt.nodes = sim::indoor_deployment().draw_nodes(population);
  Rng rng(seed);
  s.trace = sim::build_trace(p, opt, rng);
  s.build_trace_s = ref_since(t0);
  const rx::Receiver receiver(p);
  const std::size_t n = std::min(s.trace.iq.size(), kWarmupSymbols * p.sps());
  Rng decode_rng(kDecodeSeed);
  (void)receiver.decode(std::span<const cfloat>(s.trace.iq.data(), n),
                        decode_rng);
  s.setup_s = ref_since(t0);
  return s;
}

struct OfflineDecode {
  std::vector<sim::DecodedPacket> pkts;
  double ref_s = 0.0;
};

OfflineDecode decode_offline(const rx::Receiver& receiver,
                             std::span<const cfloat> iq) {
  Rng rng(kDecodeSeed);
  OfflineDecode d;
  const auto t0 = Clock::now();
  d.pkts = receiver.decode(iq, rng);
  d.ref_s = ref_since(t0);
  return d;
}

struct StreamDecode {
  std::vector<sim::DecodedPacket> pkts;
  std::vector<std::size_t> emitted_at;  ///< samples ingested, per packet
  std::vector<double> emit_ref_s;       ///< since the emitting call began
  stream::StreamingStats stats;
  double ref_s = 0.0;  ///< push_chunk x N + finish
  double speed = 0.0;  ///< host speed over the pass
};

StreamDecode decode_stream(const lora::Params& p, rx::ReceiverOptions ropt,
                           std::span<const cfloat> iq) {
  stream::StreamingOptions sopt;
  sopt.rng_seed = kDecodeSeed;
  stream::StreamingReceiver srx(p, ropt, sopt);
  StreamDecode d;
  Clock::time_point call_start;
  srx.set_packet_callback([&](const sim::DecodedPacket&) {
    d.emit_ref_s.push_back(since(call_start));
    d.emitted_at.push_back(srx.stats().samples_in);
  });
  const std::size_t chunk = kChunkSymbols * p.sps();
  const auto t0 = Clock::now();
  for (std::size_t off = 0; off < iq.size(); off += chunk) {
    call_start = Clock::now();
    srx.push_chunk(iq.subspan(off, std::min(chunk, iq.size() - off)));
  }
  call_start = Clock::now();
  srx.finish();
  const auto t1 = Clock::now();
  // A call is often shorter than the sampling period: its wall time takes
  // the host speed of the whole pass.
  d.speed = bench::host_speed::speed(t0, t1);
  d.ref_s = ref_s(t0, t1);
  for (double& s : d.emit_ref_s) s *= d.speed;
  d.pkts = srx.packets();
  d.stats = srx.stats();
  return d;
}

/// Offline decode split at the receiver's public layer boundaries, with
/// the receiver's stage histograms recording into a private registry.
struct LayeredDecode {
  std::vector<sim::DecodedPacket> pkts;
  rx::ReceiverStats stats;
  double detect_s = 0.0, frac_sync_s = 0.0, decode_s = 0.0, total_s = 0.0;
  double codec_s = 0.0, second_pass_s = 0.0;
  std::size_t sigcalc_calls = 0;
  std::vector<double> coarse_t0;
  std::size_t gated = 0;
};

LayeredDecode decode_layered(const lora::Params& p,
                             std::span<const cfloat> iq) {
  // total_s covers the whole pass, so what falls outside the three layer
  // spans (component construction, bookkeeping) shows as unaccounted.
  const auto t_begin = Clock::now();
  obs::Registry registry;
  rx::ReceiverOptions ropt;
  ropt.metrics = &registry;
  const rx::Receiver receiver(p, ropt);
  const rx::Detector detector(p, ropt.detector);
  const rx::FracSync fsync(p);
  lora::Workspace ws(p);
  Rng rng(kDecodeSeed);
  LayeredDecode d;

  // Receiver::detect for one antenna and the built-in front end: refine
  // every coarse detection, keep the refinement only when Q* gated it.
  const auto t0 = Clock::now();
  std::vector<rx::DetectedPacket> dets = detector.detect(iq, ws);
  const auto t1 = Clock::now();
  d.coarse_t0.reserve(dets.size());
  for (rx::DetectedPacket& det : dets) {
    d.coarse_t0.push_back(det.t0);
    const rx::FracSyncResult r = fsync.refine(iq, det.t0, det.cfo_cycles, ws);
    if (r.gated) {
      det.t0 += r.dt;
      det.cfo_cycles += r.df;
      ++d.gated;
    }
  }
  const auto t2 = Clock::now();
  d.pkts =
      receiver.decode_with_detections({iq}, std::move(dets), rng, &d.stats);
  const auto t3 = Clock::now();

  d.detect_s = ref_s(t0, t1);
  d.frac_sync_s = ref_s(t1, t2);
  d.decode_s = ref_s(t2, t3);
  d.total_s = ref_s(t_begin, t3);

  // The stage histograms hold wall seconds spent inside the decode span.
  const double decode_speed = bench::host_speed::speed(t2, t3);
  const obs::Snapshot snap = registry.snapshot();
  const auto stage = [&snap](const char* name) {
    const obs::Snapshot::Metric* m =
        snap.find(obs::kStageMetricName, {{"stage", name}});
    return m != nullptr ? *m : obs::Snapshot::Metric{};
  };
  d.codec_s = decode_speed *
              (stage(obs::kStageHeader).sum + stage(obs::kStageBec).sum);
  d.second_pass_s = decode_speed * stage(obs::kStageSecondPass).sum;
  d.sigcalc_calls = stage(obs::kStageSigCalc).count;
  return d;
}

/// Batched dechirp + FFT over the trace's own symbol windows, 8 per batch
/// (the Detector scan shape). Returns the windows and the reference time of
/// each whole-trace pass.
std::pair<std::size_t, std::vector<double>> dsp_window_passes(
    const lora::Params& p, std::span<const cfloat> iq, double budget_s) {
  constexpr std::size_t kBatch = 8;
  const lora::Demodulator demod(p);
  lora::Workspace ws(p);
  const std::size_t block = kBatch * p.sps();
  const std::size_t n_blocks = iq.size() / block;
  std::vector<double> times;
  if (n_blocks == 0) return {0, times};
  std::vector<cfloat> out(block);
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < n_blocks; ++b) {
      demod.dechirp_fft_batch_into(iq.subspan(b * block, block), kBatch, 0.0,
                                   /*up=*/true, ws, out);
    }
    times.push_back(ref_since(t0));
  } while (since(start) < budget_s);
  return {n_blocks * kBatch, times};
}

/// Every decode pass must reproduce the first one's decoded set.
struct Repeats {
  std::optional<std::uint64_t> digest;
  bool identical = true;
  void add(std::uint64_t d) {
    if (!digest.has_value()) {
      digest = d;
    } else if (*digest != d) {
      identical = false;
    }
  }
};

/// What one sub-trace contributes to the run: timings as medians over its
/// passes, outcomes from its first pass of each kind.
struct SubResult {
  bool ok = false;  ///< every kind of pass succeeded at least once
  double air_s = 0.0;
  sim::EvalResult ev, ev_stream;
  stream::StreamingStats stream_stats;
  double offline_s = 0.0, stream_s = 0.0;
  std::vector<double> latencies_s;  ///< per credited streamed packet
  std::uint64_t digest = 0;
  bool offline_identical = false, stream_identical = false;
  std::optional<bool> stream_equals_offline;  ///< only without forced cuts
  // --traced only; counts are doubles so they pool like the timings.
  bool layered_identical = false;
  double detect_s = 0.0, frac_sync_s = 0.0, decode_s = 0.0, total_s = 0.0;
  double unaccounted_s = 0.0;  ///< of the layered pass, outside its spans
  double codec_s = 0.0, second_pass_s = 0.0, segment_decode_s = 0.0;
  double detect_n = 0.0, detect_true = 0.0, gated = 0.0;
  double sigcalc_calls = 0.0;
  rx::ReceiverStats rx_stats;
};

/// One sub-trace of a run and every pass measured on it.
class SubTrace {
 public:
  SubTrace(const lora::Params& p, SetUp s) : p_(p), s_(std::move(s)) {}

  std::span<const cfloat> iq() const { return s_.trace.iq; }

  /// One offline pass, in --traced mode one layered pass, then one
  /// streamed pass. A pass that throws counts as failed and the step goes
  /// on with the rest.
  void step(const rx::Receiver& receiver, bool traced, std::size_t& attempted,
            std::size_t& failed) {
    const auto attempt = [&](auto&& pass) {
      ++attempted;
      try {
        pass();
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "bench_e2e: decode pass failed: %s\n", e.what());
      }
    };
    attempt([&] {
      OfflineDecode d = decode_offline(receiver, iq());
      offline_reps_.add(decoded_digest(d.pkts));
      offline_s_.push_back(d.ref_s);
      if (!offline_.has_value()) offline_ = std::move(d);
    });
    if (traced) {
      attempt([&] {
        LayeredDecode d = decode_layered(p_, iq());
        layered_reps_.add(decoded_digest(d.pkts));
        detect_s_.push_back(d.detect_s);
        frac_s_.push_back(d.frac_sync_s);
        decode_s_.push_back(d.decode_s);
        total_s_.push_back(d.total_s);
        unaccounted_s_.push_back(d.total_s - d.detect_s - d.frac_sync_s -
                                 d.decode_s);
        codec_s_.push_back(d.codec_s);
        second_s_.push_back(d.second_pass_s);
        if (!layered_.has_value()) layered_ = std::move(d);
      });
    }
    attempt([&] {
      obs::Registry registry;
      rx::ReceiverOptions ropt;
      if (traced) ropt.metrics = &registry;
      StreamDecode d = decode_stream(p_, ropt, iq());
      stream_reps_.add(decoded_digest(d.pkts));
      stream_s_.push_back(d.ref_s);
      emit_s_.push_back(d.emit_ref_s);
      if (traced) {
        const obs::Snapshot snap = registry.snapshot();
        const obs::Snapshot::Metric* seg =
            snap.find("tnb_stream_segment_decode_seconds");
        segment_s_.push_back(seg != nullptr ? d.speed * seg->sum : 0.0);
      }
      if (!streamed_.has_value()) streamed_ = std::move(d);
    });
  }

  SubResult score(bool traced) const {
    SubResult r;
    if (!offline_.has_value() || !streamed_.has_value() ||
        (traced && !layered_.has_value())) {
      return r;
    }
    const sim::Trace& trace = s_.trace;
    const double fs = p_.sample_rate_hz();
    r.ok = true;
    r.air_s = static_cast<double>(trace.iq.size()) / fs;
    r.ev = sim::evaluate(trace, offline_->pkts);
    r.ev_stream = sim::evaluate(trace, streamed_->pkts);
    r.stream_stats = streamed_->stats;
    r.offline_s = median(offline_s_);
    r.stream_s = median(stream_s_);
    r.digest = *offline_reps_.digest;
    r.offline_identical = offline_reps_.identical;
    r.stream_identical = stream_reps_.identical;
    // Without a forced cut the stream should decode the offline set. It
    // can still differ where BEC falls back to random sampling: the stream
    // restarts the decode RNG every segment, so that is counted, not failed.
    if (r.stream_stats.forced_cuts == 0) {
      r.stream_equals_offline =
          payload_multiset(streamed_->pkts) == payload_multiset(offline_->pkts);
    }

    // Packet latency: air lag (samples ingested at emission minus the
    // packet's last ground-truth sample) over fs, plus the median over
    // passes of the time since the emitting push_chunk / finish call began.
    for (std::size_t i = 0; i < streamed_->pkts.size(); ++i) {
      const sim::TxPacketRecord* rec =
          credited_record(trace, streamed_->pkts[i]);
      if (rec == nullptr) continue;
      std::vector<double> emit_s;
      for (const std::vector<double>& pass : emit_s_) {
        if (i < pass.size()) emit_s.push_back(pass[i]);
      }
      const double last =
          rec->start_sample + static_cast<double>(rec->n_samples);
      r.latencies_s.push_back(
          (static_cast<double>(streamed_->emitted_at[i]) - last) / fs +
          median(emit_s));
    }

    if (traced) {
      r.layered_identical = layered_reps_.identical &&
                            layered_reps_.digest == offline_reps_.digest;
      r.detect_s = median(detect_s_);
      r.frac_sync_s = median(frac_s_);
      r.decode_s = median(decode_s_);
      r.total_s = median(total_s_);
      r.unaccounted_s = median(unaccounted_s_);
      r.codec_s = median(codec_s_);
      r.second_pass_s = median(second_s_);
      r.segment_decode_s = median(segment_s_);
      // Coarse detections within one symbol of a ground-truth start.
      std::vector<double> starts;
      for (const sim::TxPacketRecord& rec : trace.packets) {
        starts.push_back(rec.start_sample);
      }
      std::sort(starts.begin(), starts.end());
      const double tol = static_cast<double>(p_.sps());
      r.detect_n = static_cast<double>(layered_->coarse_t0.size());
      r.detect_true = static_cast<double>(std::count_if(
          layered_->coarse_t0.begin(), layered_->coarse_t0.end(),
          [&](double t0) {
            const auto it =
                std::lower_bound(starts.begin(), starts.end(), t0 - tol);
            return it != starts.end() && *it <= t0 + tol;
          }));
      r.gated = static_cast<double>(layered_->gated);
      r.sigcalc_calls = static_cast<double>(layered_->sigcalc_calls);
      r.rx_stats = layered_->stats;
    }
    return r;
  }

 private:
  lora::Params p_;
  SetUp s_;
  Repeats offline_reps_, stream_reps_, layered_reps_;
  std::optional<OfflineDecode> offline_;
  std::optional<StreamDecode> streamed_;
  std::optional<LayeredDecode> layered_;
  std::vector<double> offline_s_, stream_s_, segment_s_;
  std::vector<std::vector<double>> emit_s_;  ///< per stream pass
  std::vector<double> detect_s_, frac_s_, decode_s_, total_s_, unaccounted_s_,
      codec_s_, second_s_;
};

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    std::printf("METRIC %s %.17g %s\n", name.c_str(), value, unit);
    metrics_.push_back({name, value, unit});
  }
  void info(const std::string& name, double value) {
    std::printf("INFO %s %.17g\n", name.c_str(), value);
    info_.emplace_back(name, value);
  }
  void check(const std::string& name, bool ok) {
    std::printf("CHECK %s %s\n", name.c_str(), ok ? "ok" : "FAIL");
    checks_.emplace_back(name, ok);
  }
  bool ok() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const auto& c) { return c.second; });
  }

  std::string to_json(const Workload& w, std::uint64_t seed, bool traced,
                      std::uint64_t digest, std::size_t attempted,
                      std::size_t failed) const {
    char buf[40];
    const auto exact = [&buf](double v) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return std::isfinite(v) ? std::string(buf) : std::string("null");
    };
    obs::JsonWriter j;
    j.begin_object();
    j.field("workload", w.name);
    j.field("seed", seed);
    j.field("traced", traced);
    j.field("fft_backend", dsp::active_fft_backend().name());
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    j.field("decoded_digest", std::string_view(buf));
    j.field("correct", ok());
    j.field("attempted", std::uint64_t{attempted});
    j.field("failed", std::uint64_t{failed});
    j.key("metrics").begin_object();
    for (const Metric& m : metrics_) {
      j.key(m.name).begin_object();
      j.key("value").raw(exact(m.value));
      j.field("unit", m.unit);
      j.end_object();
    }
    j.end_object();
    j.key("info").begin_object();
    for (const auto& [name, value] : info_) j.key(name).raw(exact(value));
    j.end_object();
    j.key("checks").begin_object();
    for (const auto& [name, ok] : checks_) j.field(name, ok);
    j.end_object();
    j.end_object();
    return j.take();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> info_;
  std::vector<std::pair<std::string, bool>> checks_;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed S [--seconds T] "
               "[--traced] [--out FILE]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool traced = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const Workload& cand : kWorkloads) {
        if (name == cand.name) w = &cand;
      }
      if (w == nullptr) usage();
    } else if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value());
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--out") {
      out_path = value();
    } else {
      usage();
    }
  }
  if (w == nullptr || !seed.has_value() || !(seconds > 0.0)) usage();
  if (!dsp::set_fft_backend(w->fft_backend)) {
    std::fprintf(stderr, "bench_e2e: fft backend '%s' unavailable (have: %s)\n",
                 w->fft_backend, dsp::fft_backend_names().c_str());
    return 2;
  }
  if (!bench::host_speed::start()) {
    std::fprintf(stderr, "bench_e2e: cannot start the host-speed timer\n");
    return 2;
  }

  const lora::Params p{.sf = w->sf, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  const std::size_t n_traces = static_cast<std::size_t>(w->traces);
  std::vector<std::uint64_t> trace_seeds(n_traces);
  Rng traffic(kTrafficSeed);
  for (std::uint64_t& s : trace_seeds) s = traffic.next();
  std::vector<SubTrace> traces;
  std::vector<double> setups, builds;
  for (std::size_t i = 0; i < std::max(n_traces, kMinSetUps); ++i) {
    SetUp s = set_up(*w, p, trace_seeds[i % n_traces]);
    setups.push_back(s.setup_s);
    builds.push_back(s.build_trace_s);
    if (i < n_traces) traces.emplace_back(p, std::move(s));
  }

  // Every sub-trace stays resident and the timed passes visit them in
  // turn, so each sub-trace's timings are spread over the whole run rather
  // than bunched into one stretch of it.
  const rx::Receiver receiver(p);
  std::size_t attempted = 0, failed = 0, steps = 0;
  const double passes_s = traced ? seconds * (1.0 - kDspShare) : seconds;
  const auto t_meas = Clock::now();
  do {
    traces[(*seed + steps) % n_traces].step(receiver, traced, attempted,
                                            failed);
    ++steps;
  } while (steps < n_traces || since(t_meas) < passes_s);

  std::vector<SubResult> subs;
  std::vector<double> latencies;
  Fnv digest;
  for (const SubTrace& t : traces) {
    subs.push_back(t.score(traced));
    const SubResult& r = subs.back();
    if (!r.ok) {
      std::fprintf(stderr, "bench_e2e: no successful decode pass\n");
      return 1;
    }
    latencies.insert(latencies.end(), r.latencies_s.begin(),
                     r.latencies_s.end());
    digest.mix(&r.digest, sizeof r.digest);
  }
  double dsp_windows = 0.0, dsp_s = 0.0;
  if (traced) {
    const double budget_s = std::max(0.1, seconds - since(t_meas)) /
                            static_cast<double>(n_traces);
    for (const SubTrace& t : traces) {
      const auto [windows, times] = dsp_window_passes(p, t.iq(), budget_s);
      dsp_windows += static_cast<double>(windows);
      dsp_s += median(times);
    }
  }
  bench::host_speed::stop();

  // Pooled over sub-traces: sums of per-sub-trace medians and counts.
  const auto sum = [&subs](double SubResult::*field) {
    double s = 0.0;
    for (const SubResult& r : subs) s += r.*field;
    return s;
  };
  const auto all = [&subs](auto pred) {
    return std::all_of(subs.begin(), subs.end(), pred);
  };
  sim::EvalResult ev, ev_stream;
  rx::ReceiverStats rx_stats;
  stream::StreamingStats stream_stats;
  std::size_t peak_iq = 0;
  for (const SubResult& r : subs) {
    ev.transmitted += r.ev.transmitted;
    ev.decoded_unique += r.ev.decoded_unique;
    ev.decoded_raw += r.ev.decoded_raw;
    ev.false_packets += r.ev.false_packets;
    ev_stream.decoded_unique += r.ev_stream.decoded_unique;
    rx_stats += r.rx_stats;
    stream_stats += r.stream_stats;
    peak_iq = std::max(peak_iq, r.stream_stats.high_water_samples);
  }
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  const double air = sum(&SubResult::air_s);
  const double transmitted = count(ev.transmitted);

  Report report;
  if (!traced) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // The highest quantile with ten samples beyond it.
    const double n = count(latencies.size());
    const double tail_q = std::max(0.5, 1.0 - 10.0 / n);
    report.metric("rtf_offline", air / sum(&SubResult::offline_s),
                  "air-s/ref-s");
    report.metric("rtf_stream", air / sum(&SubResult::stream_s),
                  "air-s/ref-s");
    report.metric("prr", count(ev.decoded_unique) / transmitted, "ratio");
    report.metric("prr_stream", count(ev_stream.decoded_unique) / transmitted,
                  "ratio");
    // Offline packets credited to a ground-truth packet over all decoded
    // ones: falls below 1 exactly when CRC-passing garbage comes out.
    report.metric("precision",
                  ratio(count(ev.decoded_raw - ev.false_packets),
                        count(ev.decoded_raw)),
                  "ratio");
    report.metric("pkt_latency_p50_s", quantile(latencies, 0.5), "s");
    report.metric("pkt_latency_tail_s", quantile(latencies, tail_q), "s");
    report.metric("peak_iq_samples", count(peak_iq), "samples");
    report.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                  "MiB");
    report.metric("setup_s", median(setups), "s");
    report.info("pkt_latency_tail_q", tail_q);
    report.info("pkt_latency_n", n);
  } else {
    const double detect = sum(&SubResult::detect_s);
    const double frac = sum(&SubResult::frac_sync_s);
    const double decode = sum(&SubResult::decode_s);
    const double total = sum(&SubResult::total_s);
    const double codec = sum(&SubResult::codec_s);
    const double stream_s = sum(&SubResult::stream_s);
    const double segment_s = sum(&SubResult::segment_decode_s);
    const double n_detect = sum(&SubResult::detect_n);
    const double unaccounted = sum(&SubResult::unaccounted_s) / total;

    report.metric("sim.build_trace_s", median(builds), "s");
    report.metric("dsp.sv_per_s", ratio(dsp_windows, dsp_s), "1/s");
    report.metric("core.detect_s", detect, "s");
    report.metric("core.detect_n", n_detect, "count");
    report.metric("core.detect_true_ratio",
                  ratio(sum(&SubResult::detect_true), n_detect), "ratio");
    report.metric("core.frac_sync_s", frac, "s");
    report.metric("core.frac_sync_gated_ratio",
                  ratio(sum(&SubResult::gated), n_detect), "ratio");
    report.metric("core.decode_s", decode, "s");
    report.metric("core.assign_s", decode - codec, "s");
    report.metric("core.second_pass_s", sum(&SubResult::second_pass_s), "s");
    report.metric("core.sigcalc_calls", sum(&SubResult::sigcalc_calls),
                  "count");
    report.metric("core.crc_ok_ratio",
                  ratio(count(rx_stats.crc_ok), count(rx_stats.detected)),
                  "ratio");
    report.metric("core.decoded_second_pass",
                  count(rx_stats.decoded_second_pass), "count");
    report.metric("core.codec_s", codec, "s");
    report.metric("core.bec_crc_checks", count(rx_stats.bec.crc_checks),
                  "count");
    report.metric("core.bec_candidate_blocks",
                  count(rx_stats.bec.candidate_blocks), "count");
    report.metric("core.false_pkts", count(ev.false_packets), "count");
    report.metric("stream.s", stream_s, "s");
    report.metric("stream.segment_decode_s", segment_s, "s");
    report.metric("stream.overhead_s", stream_s - segment_s, "s");
    report.metric("stream.segments", count(stream_stats.segments), "count");
    report.metric("stream.forced_cuts", count(stream_stats.forced_cuts),
                  "count");
    report.metric("stream.spans_refined", count(stream_stats.spans_refined),
                  "count");
    report.metric("trace.total_s", total, "s");
    report.metric("trace.unaccounted_ratio", unaccounted, "ratio");
    report.metric("trace.overhead_ratio",
                  total / sum(&SubResult::offline_s) - 1.0, "ratio");
    report.check("layered_equals_decode",
                 all([](const SubResult& r) { return r.layered_identical; }));
    report.check("unaccounted_ratio_max", unaccounted <= kMaxUnaccounted);
  }

  report.info("host_speed_samples", count(bench::host_speed::samples()));
  report.info("host_speed_median", bench::host_speed::median_speed());
  report.info("sub_traces", count(subs.size()));
  report.info("air_s", air);
  report.info("steps", count(steps));
  report.info("transmitted", transmitted);
  report.info("decoded_unique", count(ev.decoded_unique));
  report.info("decoded_unique_stream", count(ev_stream.decoded_unique));
  report.info("false_pkts", count(ev.false_packets));
  report.info("forced_cuts", count(stream_stats.forced_cuts));
  report.info("segments", count(stream_stats.segments));
  const auto n_subs = [&subs](auto pred) {
    return static_cast<double>(std::count_if(subs.begin(), subs.end(), pred));
  };
  report.info("stream_equals_offline_checked", n_subs([](const SubResult& r) {
                return r.stream_equals_offline.has_value();
              }));
  report.info("stream_equals_offline_mismatch", n_subs([](const SubResult& r) {
                return !r.stream_equals_offline.value_or(true);
              }));

  report.check("offline_reps_identical",
               all([](const SubResult& r) { return r.offline_identical; }));
  report.check("stream_reps_identical",
               all([](const SubResult& r) { return r.stream_identical; }));

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << report.to_json(*w, *seed, traced, digest.h, attempted, failed)
        << '\n';
    if (!out) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  return report.ok() ? 0 : 1;
}
