// tnb::impair — composable hardware-impairment pipeline.
//
// The paper's traces come from USRPs; real SX127x front ends add effects
// the clean synthesizer does not model: transmitter phase noise (a Wiener
// process whose variance is set by the oscillator linewidth), receiver IQ
// imbalance (gain/phase mismatch between the I and Q arms), coarse ADC
// quantization (int12/int8 with clipping), sample-clock drift (ppm offsets
// between transmitter and receiver clocks), interference from co-located
// networks running other spreading factors, and Doppler for mobile nodes.
//
// Each effect is an Impairment stage; an ordered chain of ImpairmentConfig
// entries builds a Pipeline. Stages are split by scope:
//
//   per-packet (transmitter side) — phase_noise, doppler. Applied to each
//     clean packet waveform before the channel, with state reset per packet
//     (every transmitter has its own oscillator trajectory).
//   per-trace (receiver side)     — iq_imbalance, quantize, clock_drift,
//     inter_sf. Applied to the summed trace after noise, in config order.
//
// All randomness is drawn from the caller's Rng in a fixed order, so traces
// are bit-identical for a fixed seed regardless of thread count. A config
// whose severity is zero (is_noop()) is dropped at Pipeline construction
// and consumes no Rng draws at all — a zero-severity chain is bit-identical
// to no chain, which the equality tests and the cli_smoke ctest pin.
//
// Streaming: the same stages run chunk-by-chunk via process_stream()
// (tnb_streamd --impair) with state carried across chunks; inter_sf is
// synthesis-only (an injected packet spans chunk boundaries) and is
// rejected there — see Pipeline::synthesis_only().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "lora/params.hpp"
#include "obs/metrics.hpp"

namespace tnb::impair {

enum class Kind {
  kPhaseNoise,   ///< transmitter oscillator phase noise (Wiener process)
  kIqImbalance,  ///< receiver I/Q gain + phase mismatch
  kQuantize,     ///< ADC quantization with clipping
  kClockDrift,   ///< sample-clock offset in ppm (fractional resampling)
  kInterSf,      ///< foreign-SF LoRa packets injected as interference
  kDoppler,      ///< sinusoidal Doppler profile for a mobile node
};

/// CLI name of a kind ("phase_noise", "iq_imbalance", ...).
const char* kind_name(Kind kind);

/// Flat parameter record for one stage. Only the fields of `kind` are
/// meaningful; the rest keep their defaults. Defaults are chosen so a
/// default-constructed config of any kind is a no-op.
struct ImpairmentConfig {
  Kind kind = Kind::kPhaseNoise;

  // phase_noise: -3 dB oscillator linewidth. Wiener increments have
  // variance 2*pi*linewidth / fs per sample.
  double linewidth_hz = 0.0;

  // iq_imbalance: amplitude mismatch between the arms in dB and the phase
  // skew in degrees. y = mu*x + nu*conj(x) with eps = 10^(gain_db/20),
  // mu = (1 + eps*e^{-j phi})/2, nu = (1 - eps*e^{j phi})/2.
  double gain_db = 0.0;
  double phase_deg = 0.0;

  // quantize: ADC bit depth (0 disables; 8 = int8, 12 = int12) and the
  // full-scale input amplitude mapped to the positive rail. The default
  // full scale of 32 matches the int16 trace format's rail at the default
  // write scale of 1024 (32767/1024), so reconstruction levels of 8-bit
  // and 12-bit codes land exactly on the int16 grid — see
  // tests/vectors/impair_vectors.txt.
  unsigned bits = 0;
  double full_scale = 32.0;

  // clock_drift: receiver sampling-rate error in parts per million. The
  // stream is resampled at rate 1 + ppm*1e-6 with the same linear
  // interpolation as rx::extract_window; ppm = 0 is byte-exact.
  double ppm = 0.0;

  // inter_sf: offered load (packets/second) of interfering LoRa packets at
  // spreading factor `sf` (same bandwidth/OSF), each at `snr_db` with a
  // random CFO. sf = 0 or pps = 0 disables.
  unsigned sf = 0;
  double pps = 0.0;
  double snr_db = 10.0;

  // doppler: peak Doppler shift in Hz and the period of the sinusoidal
  // trajectory f(t) = doppler_hz * cos(2 pi t / period_s + theta0), theta0
  // drawn uniformly per packet.
  double doppler_hz = 0.0;
  double period_s = 10.0;

  /// True for transmitter-side stages applied per packet.
  bool per_packet() const {
    return kind == Kind::kPhaseNoise || kind == Kind::kDoppler;
  }

  /// True when the configured severity is zero — the stage would be the
  /// identity. No-op configs are dropped at Pipeline construction.
  bool is_noop() const;

  /// Throws std::invalid_argument on out-of-range parameters (negative
  /// linewidth, bits > 16, |ppm| >= 1e5, inter_sf SF outside 5..12, ...).
  void validate() const;

  /// Canonical CLI spec, parseable by parse_impairment.
  std::string to_string() const;
};

/// Parses a CLI impairment spec: "kind,key=val,key=val". Keys per kind:
///   phase_noise  linewidth_hz
///   iq_imbalance gain_db phase_deg
///   quantize     bits full_scale
///   clock_drift  ppm
///   inter_sf     sf pps snr_db
///   doppler      hz period_s
/// Throws std::invalid_argument (message lists valid names) on unknown
/// kinds/keys or malformed values. The result is validate()d.
ImpairmentConfig parse_impairment(const std::string& spec);

/// One-line CLI help for --impair (kinds and their keys).
std::string impairment_cli_help();

/// IQ-imbalance mixing coefficients (mu, nu) of a config.
std::pair<std::complex<double>, std::complex<double>> iq_imbalance_coeffs(
    const ImpairmentConfig& cfg);

/// Analytic inverse of the IQ-imbalance map: recovers x from
/// y = mu*x + nu*conj(x). Exposed for the property tests.
cfloat iq_imbalance_invert(const ImpairmentConfig& cfg, cfloat y);

/// Clipping accounting of quantize stages.
struct ClipStats {
  std::uint64_t clipped = 0;  ///< samples with at least one clipped component
  std::uint64_t total = 0;    ///< samples pushed through the quantizer

  double rate() const {
    return total > 0 ? static_cast<double>(clipped) / static_cast<double>(total)
                     : 0.0;
  }
};

/// One stage of the chain. process() transforms samples in place (the
/// resampler may change the buffer length) and draws randomness only from
/// the passed Rng; flush() drains samples a stateful stage still buffers.
class Impairment {
 public:
  explicit Impairment(const ImpairmentConfig& cfg) : cfg_(cfg) {}
  virtual ~Impairment() = default;

  const ImpairmentConfig& config() const { return cfg_; }

  /// Returns per-stage state to its initial value (start of a new packet /
  /// antenna). Does not touch the Rng.
  virtual void reset() {}

  virtual void process(IqBuffer& buf, Rng& rng) = 0;

  /// Applies the stage to several buffers that must receive the *same*
  /// realization (the antennas of one trace). The default resets and
  /// processes each buffer independently, which is correct for
  /// deterministic stages; inter_sf overrides it to draw its interferers
  /// once and inject them into every antenna.
  virtual void process_multi(std::span<IqBuffer* const> bufs, Rng& rng);

  /// Emits any samples still held back (the resampler's pending window).
  virtual void flush(IqBuffer& out) { out.clear(); }

  virtual ClipStats clip_stats() const { return {}; }

 protected:
  ImpairmentConfig cfg_;
};

/// Builds a single stage (registers its obs metrics against
/// obs::resolve(registry)). The config may be a no-op: callers that want
/// zero-severity dropping use Pipeline. Throws on invalid configs.
std::unique_ptr<Impairment> make_impairment(const ImpairmentConfig& cfg,
                                            const lora::Params& params,
                                            obs::Registry* registry = nullptr);

/// An ordered impairment chain split by scope. Construction validates every
/// config, drops no-ops, and registers obs metrics; an all-no-op (or empty)
/// chain yields an empty() pipeline that never touches the Rng.
class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(std::span<const ImpairmentConfig> configs,
           const lora::Params& params, obs::Registry* registry = nullptr);

  bool empty() const { return stages_.empty(); }
  bool has_per_packet() const { return !packet_stages_.empty(); }
  bool has_per_trace() const { return !trace_stages_.empty(); }

  /// True when the chain contains a stage that can only run at synthesis
  /// time (inter_sf) — tnb_streamd rejects such chains.
  bool synthesis_only() const;

  /// Transmitter-side stages, state reset per call. Never changes size.
  void apply_packet(IqBuffer& packet, Rng& rng);

  /// Receiver-side stages over all antennas of one trace, in config order.
  /// Every antenna is restored to its original length afterwards (the
  /// resampler zero-pads or truncates the tail).
  void apply_trace(std::span<IqBuffer* const> antennas, Rng& rng);
  void apply_trace(IqBuffer& trace, Rng& rng);

  /// Streaming: every stage in config order, state carried across calls
  /// (no reset). The chunk may change length. Call flush_stream at end of
  /// stream to drain resampler tails through the remaining stages.
  void process_stream(IqBuffer& chunk, Rng& rng);
  void flush_stream(IqBuffer& tail, Rng& rng);

  /// Aggregated over all quantize stages.
  ClipStats clip_stats() const;

 private:
  std::vector<std::unique_ptr<Impairment>> stages_;  ///< config order
  std::vector<Impairment*> packet_stages_;
  std::vector<Impairment*> trace_stages_;
};

}  // namespace tnb::impair
