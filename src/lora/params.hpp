// LoRa PHY parameters and frame-layout constants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace tnb::lora {

/// Number of upchirps at the start of every preamble.
inline constexpr std::size_t kPreambleUpchirps = 8;
/// Number of sync-word symbols following the upchirps.
inline constexpr std::size_t kSyncSymbols = 2;
/// Cyclic shifts of the two sync symbols (peaks at bins 8 and 16,
/// i.e. locations 9 and 17 in the paper's 1-indexed convention).
inline constexpr std::uint32_t kSyncShift1 = 8;
inline constexpr std::uint32_t kSyncShift2 = 16;
/// Downchirps terminating the preamble, in units of symbols.
inline constexpr double kPreambleDownchirps = 2.25;
/// PHY header length in symbols; the header always uses CR 4 (4+4 columns).
inline constexpr std::size_t kHeaderSymbols = 8;

/// Static configuration of one LoRa link.
///
/// Invariants are checked by `validate()`: SF in [5,12] (5 and 6 exist for
/// wire-format links; the paper evaluates 7..12), CR in [1,4], OSF >= 1.
/// Everything else is derived.
struct Params {
  unsigned sf = 8;        ///< spreading factor
  unsigned cr = 4;        ///< coding rate: number of parity bits sent (1..4)
  double bandwidth_hz = 125e3;
  unsigned osf = 8;       ///< over-sampling factor U at the receiver
  /// Low Data Rate Optimization: each symbol carries SF-2 bits and the two
  /// least-significant shift bits are ignored at demodulation, trading rate
  /// for robustness on long symbols (LoRa enables this at SF 11/12).
  bool ldro = false;

  void validate() const {
    if (sf < 5 || sf > 12) throw std::invalid_argument("Params: SF must be 5..12");
    if (cr < 1 || cr > 4) throw std::invalid_argument("Params: CR must be 1..4");
    if (osf < 1) throw std::invalid_argument("Params: OSF must be >= 1");
    if (bandwidth_hz <= 0) throw std::invalid_argument("Params: bandwidth must be positive");
    if (ldro && sf < 8) throw std::invalid_argument("Params: LDRO needs SF >= 8");
  }

  /// Data bits carried per symbol (= code-block rows): SF, or SF-2 in LDRO.
  unsigned bits_per_symbol() const { return ldro ? sf - 2 : sf; }

  /// Number of FFT bins / chirp samples per symbol: 2^SF.
  std::size_t n_bins() const { return std::size_t{1} << sf; }

  /// Receiver samples per symbol: 2^SF * OSF.
  std::size_t sps() const { return n_bins() * osf; }

  /// Receiver sample rate in Hz.
  double sample_rate_hz() const { return bandwidth_hz * osf; }

  /// Symbol duration in seconds.
  double symbol_time_s() const { return static_cast<double>(n_bins()) / bandwidth_hz; }

  /// Codeword length (= symbols per code block): 4 data + CR parity columns.
  std::size_t codeword_len() const { return 4 + cr; }

  /// Preamble duration in receiver samples (8 up + 2 sync + 2.25 down).
  std::size_t preamble_samples() const {
    const double symbols = static_cast<double>(kPreambleUpchirps + kSyncSymbols) +
                           kPreambleDownchirps;
    return static_cast<std::size_t>(symbols * static_cast<double>(sps()));
  }

  /// Converts a CFO in Hz to cycles per symbol (the unit used throughout
  /// Thrive and the synchronizer; the paper's `f` equals 1/T).
  double cfo_hz_to_cycles(double cfo_hz) const { return cfo_hz * symbol_time_s(); }
  double cfo_cycles_to_hz(double cycles) const { return cycles / symbol_time_s(); }
};

}  // namespace tnb::lora
