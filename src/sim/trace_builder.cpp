#include "sim/trace_builder.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "channel/awgn.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"

namespace tnb::sim {
namespace {

constexpr std::uint8_t kAppMagic[4] = {0xC0, 0xDE, 0x10, 0x8A};

}  // namespace

std::vector<std::uint8_t> make_app_payload(std::uint16_t node_id,
                                           std::uint16_t seq,
                                           std::size_t total_bytes, Rng& rng) {
  if (total_bytes < 8) {
    throw std::invalid_argument("make_app_payload: need at least 8 bytes");
  }
  std::vector<std::uint8_t> p(total_bytes);
  p[0] = kAppMagic[0];
  p[1] = kAppMagic[1];
  p[2] = kAppMagic[2];
  p[3] = kAppMagic[3];
  p[4] = static_cast<std::uint8_t>(node_id & 0xFF);
  p[5] = static_cast<std::uint8_t>(node_id >> 8);
  p[6] = static_cast<std::uint8_t>(seq & 0xFF);
  p[7] = static_cast<std::uint8_t>(seq >> 8);
  for (std::size_t i = 8; i < total_bytes; ++i) {
    p[i] = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  return p;
}

bool parse_app_payload(std::span<const std::uint8_t> payload,
                       std::uint16_t& node_id, std::uint16_t& seq) {
  if (payload.size() < 8) return false;
  if (payload[0] != kAppMagic[0] || payload[1] != kAppMagic[1] ||
      payload[2] != kAppMagic[2] || payload[3] != kAppMagic[3]) {
    return false;
  }
  node_id = static_cast<std::uint16_t>(payload[4] | (payload[5] << 8));
  seq = static_cast<std::uint16_t>(payload[6] | (payload[7] << 8));
  return true;
}

Trace build_trace(const lora::Params& params, const TraceOptions& opt, Rng& rng) {
  params.validate();
  if (opt.nodes.empty()) {
    throw std::invalid_argument("build_trace: no nodes configured");
  }

  Trace trace;
  trace.params = params;
  trace.noise_power =
      opt.add_noise ? chan::fullband_noise_power(params.osf) : 0.0;

  if (opt.n_antennas < 1) {
    throw std::invalid_argument("build_trace: need at least one antenna");
  }
  const std::size_t trace_samples =
      static_cast<std::size_t>(opt.duration_s * params.sample_rate_hz());
  trace.iq.assign(trace_samples, cfloat{0.0f, 0.0f});
  trace.extra_antennas.assign(opt.n_antennas - 1,
                              IqBuffer(trace_samples, cfloat{0.0f, 0.0f}));
  const auto antenna_at = [&trace](unsigned a) -> IqBuffer& {
    return a == 0 ? trace.iq : trace.extra_antennas[a - 1];
  };

  // Impairment chain: validated here, no-op configs dropped. An empty (or
  // all-no-op) pipeline never touches `rng`, keeping legacy traces
  // bit-identical.
  impair::Pipeline pipeline(opt.impairments, params);

  const lora::Modulator mod(params);
  const std::size_t n_data_symbols = lora::frame_symbols(
      opt.coding, params, opt.app_payload_bytes, opt.implicit_header);
  const std::size_t pkt_samples = mod.packet_samples(n_data_symbols);
  if (pkt_samples >= trace_samples) {
    throw std::invalid_argument("build_trace: trace shorter than one packet");
  }

  // Synthesizes the packet of `rec` (rec.start_sample, cfo, snr already
  // set), runs the transmitter-side impairments, and superimposes it on
  // every antenna — shared by the legacy and traffic-model schedulers.
  const auto add_packet = [&](TxPacketRecord& rec) {
    const std::size_t start_int = static_cast<std::size_t>(rec.start_sample);
    lora::WaveformOptions wopt;
    wopt.frac_delay = rec.start_sample - static_cast<double>(start_int);
    wopt.cfo_hz = rec.cfo_hz;
    wopt.amplitude = chan::amplitude_for_snr_db(rec.snr_db);
    IqBuffer clean = mod.synthesize_shifts(
        lora::encode_frame(opt.coding, params, rec.app_payload,
                           opt.implicit_header),
        wopt);
    if (pipeline.has_per_packet()) pipeline.apply_packet(clean, rng);
    rec.n_samples = clean.size();

    for (unsigned a = 0; a < opt.n_antennas; ++a) {
      IqBuffer pkt = clean;
      if (opt.channel != nullptr) {
        // Independent realization per antenna: receive diversity.
        opt.channel->apply(pkt, params.sample_rate_hz(), rng);
      }
      IqBuffer& dst = antenna_at(a);
      const std::size_t n_add = std::min(pkt.size(), trace_samples - start_int);
      for (std::size_t i = 0; i < n_add; ++i) {
        dst[start_int + i] += pkt[i];
      }
    }
  };

  std::vector<std::uint16_t> node_seq(opt.nodes.size(), 0);
  if (opt.traffic.has_value()) {
    const TrafficModel& tm = *opt.traffic;
    const double fs = params.sample_rate_hz();
    const std::vector<unsigned> node_sf =
        draw_sf_assignment(tm, opt.nodes.size(), params.sf, rng);

    // Frame layout of the ADR mix's foreign SFs (paper coding at that SF;
    // the trace SF keeps opt.coding). Built before the arrival draws — no
    // randomness involved.
    struct ForeignSf {
      lora::Params p;
      std::size_t n_symbols = 0;
      std::size_t pkt_samples = 0;
    };
    std::map<unsigned, ForeignSf> foreign;
    for (unsigned sf : node_sf) {
      if (sf == params.sf || foreign.count(sf) != 0) continue;
      ForeignSf f;
      f.p = params;
      f.p.sf = sf;
      f.p.ldro = params.ldro && sf >= 8;
      f.n_symbols = lora::frame_symbols(lora::Coding::kPaper, f.p,
                                        opt.app_payload_bytes,
                                        opt.implicit_header);
      f.pkt_samples = lora::Modulator(f.p).packet_samples(f.n_symbols);
      foreign.emplace(sf, f);
    }

    const auto airtime = [&](unsigned sf) {
      const std::size_t n =
          sf == params.sf ? pkt_samples : foreign.at(sf).pkt_samples;
      return static_cast<double>(n) / fs;
    };
    const TrafficDraw draw = draw_arrivals(tm, opt.load_pps, opt.duration_s,
                                           node_sf, airtime, rng);
    trace.duty_dropped = draw.duty_dropped;

    for (const PacketArrival& a : draw.arrivals) {
      const NodeConfig& node = opt.nodes[a.node];
      const double start = a.start_s * fs;
      if (a.sf == params.sf) {
        // Arrivals too close to the trace end to fit are dropped (an event
        // schedule, unlike the legacy placement, does not know the packet
        // length up front).
        if (start > static_cast<double>(trace_samples) -
                        static_cast<double>(pkt_samples) - 2.0) {
          continue;
        }
        TxPacketRecord rec;
        rec.node_id = node.id;
        rec.seq = node_seq[a.node]++;
        rec.app_payload =
            make_app_payload(node.id, rec.seq, opt.app_payload_bytes, rng);
        rec.cfo_hz = node.cfo_hz;
        rec.snr_db = node.snr_db;
        rec.n_data_symbols = n_data_symbols;
        rec.start_sample = start;
        add_packet(rec);
        trace.packets.push_back(std::move(rec));
      } else {
        const ForeignSf& f = foreign.at(a.sf);
        if (start > static_cast<double>(trace_samples) -
                        static_cast<double>(f.pkt_samples) - 2.0) {
          continue;
        }
        // A real transmission from an ADR-assigned node, but invisible to
        // the same-SF ground truth: synthesized into the waveform only.
        const std::uint16_t seq = node_seq[a.node]++;
        const std::vector<std::uint8_t> payload =
            make_app_payload(node.id, seq, opt.app_payload_bytes, rng);
        const std::size_t start_int = static_cast<std::size_t>(start);
        lora::WaveformOptions wopt;
        wopt.frac_delay = start - static_cast<double>(start_int);
        wopt.cfo_hz = node.cfo_hz;
        wopt.amplitude = chan::amplitude_for_snr_db(node.snr_db);
        const lora::Modulator fmod(f.p);
        IqBuffer clean = fmod.synthesize_shifts(
            lora::encode_frame(lora::Coding::kPaper, f.p, payload,
                               opt.implicit_header),
            wopt);
        if (pipeline.has_per_packet()) pipeline.apply_packet(clean, rng);
        for (unsigned ant = 0; ant < opt.n_antennas; ++ant) {
          IqBuffer pkt = clean;
          if (opt.channel != nullptr) {
            opt.channel->apply(pkt, fs, rng);
          }
          IqBuffer& dst = antenna_at(ant);
          const std::size_t n_add =
              std::min(pkt.size(), trace_samples - start_int);
          for (std::size_t i = 0; i < n_add; ++i) {
            dst[start_int + i] += pkt[i];
          }
        }
        ++trace.n_foreign;
      }
    }
  } else {
    // Legacy schedule: total packets at the offered load, split across
    // nodes as evenly as possible (the remainder goes to the first nodes,
    // so short traces still realize the exact offered load rather than a
    // per-node quantization).
    const std::size_t total_pkts = std::max<std::size_t>(
        1, static_cast<std::size_t>(opt.load_pps * opt.duration_s + 0.5));
    const std::size_t base = total_pkts / opt.nodes.size();
    const std::size_t extra = total_pkts % opt.nodes.size();

    for (std::size_t ni = 0; ni < opt.nodes.size(); ++ni) {
      const NodeConfig& node = opt.nodes[ni];
      const std::size_t count = base + (ni < extra ? 1 : 0);
      for (std::size_t k = 0; k < count; ++k) {
        TxPacketRecord rec;
        rec.node_id = node.id;
        rec.seq = node_seq[ni]++;
        rec.app_payload = make_app_payload(node.id, rec.seq,
                                           opt.app_payload_bytes, rng);
        rec.cfo_hz = node.cfo_hz;
        rec.snr_db = node.snr_db;
        rec.n_data_symbols = n_data_symbols;
        rec.start_sample = rng.uniform(
            0.0, static_cast<double>(trace_samples - pkt_samples - 2));
        add_packet(rec);
        trace.packets.push_back(std::move(rec));
      }
    }
  }

  std::sort(trace.packets.begin(), trace.packets.end(),
            [](const TxPacketRecord& a, const TxPacketRecord& b) {
              return a.start_sample < b.start_sample;
            });

  if (opt.add_noise) {
    chan::add_awgn(trace.iq, trace.noise_power, rng);
    for (IqBuffer& a : trace.extra_antennas) {
      chan::add_awgn(a, trace.noise_power, rng);
    }
  }

  if (pipeline.has_per_trace()) {
    std::vector<IqBuffer*> antennas{&trace.iq};
    for (IqBuffer& a : trace.extra_antennas) antennas.push_back(&a);
    pipeline.apply_trace(antennas, rng);
  }
  return trace;
}

std::vector<Trace> build_multichannel_traces(const lora::Params& params,
                                             const TraceOptions& opt,
                                             unsigned n_channels, Rng& rng) {
  std::vector<Trace> traces;
  traces.reserve(n_channels);
  for (unsigned c = 0; c < n_channels; ++c) {
    TraceOptions per_channel = opt;
    for (NodeConfig& node : per_channel.nodes) {
      node.id = static_cast<std::uint16_t>(node.id + c * 1000);
    }
    traces.push_back(build_trace(params, per_channel, rng));
  }
  return traces;
}

}  // namespace tnb::sim
