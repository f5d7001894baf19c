// Packet waveform synthesis.
//
// Produces the complete baseband IQ of a LoRa packet — preamble (8 upchirps,
// 2 sync symbols, 2.25 downchirps), header and payload symbols — on the
// receiver's oversampled grid, with an analytic fractional delay and CFO so
// the simulator can place packets at arbitrary sub-sample offsets exactly.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "lora/params.hpp"

namespace tnb::lora {

struct WaveformOptions {
  /// Sub-sample delay in receiver samples, in [0, 1). Integer placement is
  /// the trace builder's job.
  double frac_delay = 0.0;
  /// Carrier frequency offset in Hz.
  double cfo_hz = 0.0;
  /// Linear amplitude of the packet (channel gain applied separately).
  double amplitude = 1.0;
};

class Modulator {
 public:
  explicit Modulator(Params p);

  const Params& params() const { return p_; }

  /// Duration of a packet with `n_data_symbols` data symbols, in chirp
  /// samples (preamble included; non-integer because of the 2.25 downchirps).
  double packet_chirp_samples(std::size_t n_data_symbols) const;

  /// Same duration in receiver samples, rounded up.
  std::size_t packet_samples(std::size_t n_data_symbols) const;

  /// Synthesizes the full packet from the raw chirp shifts of its data
  /// symbols (lora::encode_frame output; shifts wrap modulo 2^SF). Sample
  /// i is amplitude * eval_shifts(t_i) * CFO rotation, exactly; the chirp
  /// values come from a per-packet table keyed by their exact base-chirp
  /// position, so each distinct chirp value is computed once.
  IqBuffer synthesize_shifts(std::span<const std::uint32_t> shifts,
                             const WaveformOptions& opt = {}) const;

  /// Complex value of the packet waveform at continuous chirp-sample time
  /// `t` in [0, packet_chirp_samples) — exposed for tests and for the
  /// synchronizer's reference correlations.
  cfloat eval_shifts(double t, std::span<const std::uint32_t> shifts) const;

 private:
  Params p_;
};

}  // namespace tnb::lora
