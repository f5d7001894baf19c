#include "lora/modulator.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "common/math_util.hpp"
#include "lora/chirp.hpp"

namespace tnb::lora {
namespace {

/// Where a packet's waveform is at chirp-sample time t: position x on the
/// base upchirp, read conjugated during the preamble downchirps. `on` is
/// false outside [0, total).
struct ChirpPoint {
  double x = 0.0;
  bool down = false;
  bool on = false;
};

ChirpPoint locate(std::size_t n_bins, double total, double t,
                  std::span<const std::uint32_t> shifts) {
  const double n = static_cast<double>(n_bins);
  if (t < 0.0 || t >= total) return {};

  const double down_start = static_cast<double>(kPreambleUpchirps + kSyncSymbols) * n;
  const double data_start = down_start + kPreambleDownchirps * n;

  if (t < down_start) {
    const std::size_t seg = static_cast<std::size_t>(t / n);
    const double u = t - static_cast<double>(seg) * n;
    std::uint32_t shift = 0;
    if (seg == kPreambleUpchirps) shift = kSyncShift1;
    if (seg == kPreambleUpchirps + 1) shift = kSyncShift2;
    return {upchirp_position(u, shift, n_bins), false, true};
  }
  if (t < data_start) {
    const double rel = t - down_start;
    const double u = rel - std::floor(rel / n) * n;
    return {upchirp_position(u, 0, n_bins), true, true};
  }
  const double rel = t - data_start;
  const std::size_t seg = static_cast<std::size_t>(rel / n);
  const double u = rel - static_cast<double>(seg) * n;
  const std::uint32_t mask = static_cast<std::uint32_t>(n_bins - 1);
  return {upchirp_position(u, shifts[seg] & mask, n_bins), false, true};
}

/// base_upchirp memoized by its exact argument: a direct-mapped table of
/// sps + 1 slots indexed by round(x * OSF), each keyed by the x it holds.
/// At a power-of-two OSF a packet's positions fall on sps + 1 values, so
/// each chirp sincos runs once per slot instead of once per sample; a
/// position off that lattice misses and is evaluated directly, so the
/// value is base_upchirp(x) either way.
class ChirpTable {
 public:
  explicit ChirpTable(const Params& p)
      : n_bins_(p.n_bins()), osf_(static_cast<double>(p.osf)),
        slots_(p.sps() + 1) {}

  cfloat at(double x) {
    const double pos = x * osf_ + 0.5;
    if (!(pos >= 0.0 && pos < static_cast<double>(slots_.size()))) {
      return base_upchirp(x, n_bins_);
    }
    Slot& s = slots_[static_cast<std::size_t>(pos)];
    if (s.x != x) {
      s.x = x;
      s.v = base_upchirp(x, n_bins_);
    }
    return s.v;
  }

 private:
  struct Slot {
    double x = std::numeric_limits<double>::quiet_NaN();  // matches no x
    cfloat v;
  };
  std::size_t n_bins_;
  double osf_;
  std::vector<Slot> slots_;
};

}  // namespace

Modulator::Modulator(Params p) : p_(p) { p_.validate(); }

double Modulator::packet_chirp_samples(std::size_t n_data_symbols) const {
  const double symbols =
      static_cast<double>(kPreambleUpchirps + kSyncSymbols) +
      kPreambleDownchirps + static_cast<double>(n_data_symbols);
  return symbols * static_cast<double>(p_.n_bins());
}

std::size_t Modulator::packet_samples(std::size_t n_data_symbols) const {
  return static_cast<std::size_t>(
      std::ceil(packet_chirp_samples(n_data_symbols) * p_.osf));
}

cfloat Modulator::eval_shifts(double t, std::span<const std::uint32_t> shifts) const {
  const ChirpPoint c =
      locate(p_.n_bins(), packet_chirp_samples(shifts.size()), t, shifts);
  if (!c.on) return {0.0f, 0.0f};
  const cfloat v = base_upchirp(c.x, p_.n_bins());
  return c.down ? std::conj(v) : v;
}

IqBuffer Modulator::synthesize_shifts(std::span<const std::uint32_t> shifts,
                                      const WaveformOptions& opt) const {
  const std::size_t len = packet_samples(shifts.size()) +
                          (opt.frac_delay > 0.0 ? 1 : 0);
  IqBuffer out(len);
  const double cfo_cycles = p_.cfo_hz_to_cycles(opt.cfo_hz);
  const double n = static_cast<double>(p_.n_bins());
  const double total = packet_chirp_samples(shifts.size());
  const float amp = static_cast<float>(opt.amplitude);
  ChirpTable chirp(p_);

  for (std::size_t i = 0; i < len; ++i) {
    const double t = (static_cast<double>(i) - opt.frac_delay) / p_.osf;
    const ChirpPoint c = locate(p_.n_bins(), total, t, shifts);
    if (!c.on) continue;
    const cfloat up = chirp.at(c.x);
    const cfloat v = c.down ? std::conj(up) : up;
    // CFO rotates the carrier continuously over the whole packet.
    const double ph = kTwoPi * cfo_cycles * t / n;
    const cfloat rot{static_cast<float>(std::cos(ph)),
                     static_cast<float>(std::sin(ph))};
    out[i] = amp * v * rot;
  }
  return out;
}

}  // namespace tnb::lora
