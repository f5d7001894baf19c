// Multi-node collided trace synthesis.
//
// Stands in for the paper's USRP captures: every node modulates real LoRa
// packets (16-byte payloads carrying node id + sequence number, exactly the
// paper's packet format), transmits them at random times at a configured
// offered load, and the builder superimposes the waveforms — per-packet CFO,
// fractional-sample timing, per-node SNR, an optional fading channel — plus
// AWGN. Ground truth is kept alongside the IQ for exact accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "channel/fading.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "impair/impairment.hpp"
#include "lora/coding.hpp"
#include "lora/params.hpp"
#include "sim/deployment.hpp"

namespace tnb::sim {

/// Ground truth for one transmitted packet.
struct TxPacketRecord {
  std::uint16_t node_id = 0;
  std::uint16_t seq = 0;
  std::vector<std::uint8_t> app_payload;  ///< 14 app bytes (CRC16 added on air)
  double start_sample = 0.0;              ///< fractional position in the trace
  double cfo_hz = 0.0;
  double snr_db = 0.0;
  std::size_t n_samples = 0;              ///< on-air length in receiver samples
  std::size_t n_data_symbols = 0;         ///< header + payload symbols
};

struct Trace {
  lora::Params params;
  IqBuffer iq;                          ///< antenna 0
  std::vector<IqBuffer> extra_antennas; ///< antennas 1..n-1 (receive diversity)
  std::vector<TxPacketRecord> packets;  ///< sorted by start_sample
  double noise_power = 0.0;             ///< per-sample complex noise variance
  /// Foreign-SF packets injected into the waveform by the traffic model's
  /// SF mix. They interfere but are not ground truth (the receiver under
  /// test runs at `params.sf`), so they are not in `packets` or the CSV.
  std::size_t n_foreign = 0;
  /// Arrivals dropped by the traffic model's per-node duty-cycle budget.
  std::size_t duty_dropped = 0;

  /// Spans over all antennas, for Receiver::decode_multi.
  std::vector<std::span<const cfloat>> antenna_spans() const {
    std::vector<std::span<const cfloat>> spans{iq};
    for (const IqBuffer& a : extra_antennas) spans.emplace_back(a);
    return spans;
  }
};

struct TraceOptions {
  double duration_s = 5.0;
  double load_pps = 10.0;              ///< total offered load, packets/second
  std::vector<NodeConfig> nodes;
  const chan::Channel* channel = nullptr;  ///< optional per-packet fading
  bool add_noise = true;
  std::size_t app_payload_bytes = 14;  ///< 4B header + 2B id + 2B seq + data
  /// Receive antennas. Each antenna sees an independent channel
  /// realization and independent noise (the paper's TnB2ant, Section 8.5).
  unsigned n_antennas = 1;
  /// LoRa implicit-header mode: packets carry no PHY header symbols; the
  /// receiver must be configured with the matching ImplicitHeader
  /// ({app_payload_bytes + 2, cr}).
  bool implicit_header = false;
  /// Frame format of the trace-SF packets (lora::encode_frame); packets
  /// at the foreign SFs of a traffic model's ADR mix keep the paper format.
  lora::Coding coding = lora::Coding::kPaper;
  /// Event-arrival traffic model replacing the flat even-split schedule
  /// (Poisson/bursty/diurnal arrivals, duty-cycle budgets, ADR SF mix).
  /// Unset keeps the legacy schedule bit-identical.
  std::optional<TrafficModel> traffic;
  /// Ordered hardware-impairment chain (tnb::impair), applied inside
  /// build_trace: per-packet stages to each clean waveform before the
  /// channel, per-trace stages to the summed trace after noise. Zero-
  /// severity configs are dropped and draw no randomness, so an all-no-op
  /// chain is bit-identical to an empty one.
  std::vector<impair::ImpairmentConfig> impairments;
};

/// Builds one trace. All randomness comes from `rng`.
Trace build_trace(const lora::Params& params, const TraceOptions& opt, Rng& rng);

/// Builds one independent trace per channel of a multi-channel gateway
/// experiment (tnb::fleet): channel c reuses `opt` with its node ids offset
/// by c * 1000, so a decoded payload identifies the channel it was
/// transmitted on, and draws all randomness from `rng` in channel order
/// (deterministic for a fixed seed). Every trace shares `params`, and with
/// it length and sample rate — ready for fleet::mix_channels.
std::vector<Trace> build_multichannel_traces(const lora::Params& params,
                                             const TraceOptions& opt,
                                             unsigned n_channels, Rng& rng);

/// The paper's application payload layout: 4-byte app header, node id,
/// sequence number, then filler data.
std::vector<std::uint8_t> make_app_payload(std::uint16_t node_id,
                                           std::uint16_t seq,
                                           std::size_t total_bytes, Rng& rng);

/// Extracts node id / seq from a decoded app payload (inverse of
/// make_app_payload). Returns false if the payload is too short or the app
/// header magic does not match.
bool parse_app_payload(std::span<const std::uint8_t> payload,
                       std::uint16_t& node_id, std::uint16_t& seq);

}  // namespace tnb::sim
