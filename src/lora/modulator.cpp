#include "lora/modulator.hpp"

#include <cmath>

#include "common/math_util.hpp"
#include "lora/chirp.hpp"

namespace tnb::lora {

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
  const double n = static_cast<double>(p_.n_bins());
  const double total = packet_chirp_samples(shifts.size());
  if (t < 0.0 || t >= total) return {0.0f, 0.0f};

  const double down_start = static_cast<double>(kPreambleUpchirps + kSyncSymbols) * n;
  const double data_start = down_start + kPreambleDownchirps * n;

  if (t < down_start) {
    const std::size_t seg = static_cast<std::size_t>(t / n);
    const double u = t - static_cast<double>(seg) * n;
    std::uint32_t shift = 0;
    if (seg == kPreambleUpchirps) shift = kSyncShift1;
    if (seg == kPreambleUpchirps + 1) shift = kSyncShift2;
    return eval_upchirp(u, shift, p_.n_bins());
  }
  if (t < data_start) {
    const double rel = t - down_start;
    const double u = rel - std::floor(rel / n) * n;
    return eval_downchirp(u, p_.n_bins());
  }
  const double rel = t - data_start;
  const std::size_t seg = static_cast<std::size_t>(rel / n);
  const double u = rel - static_cast<double>(seg) * n;
  const std::uint32_t mask = static_cast<std::uint32_t>(p_.n_bins() - 1);
  return eval_upchirp(u, shifts[seg] & mask, p_.n_bins());
}

IqBuffer Modulator::synthesize_shifts(std::span<const std::uint32_t> shifts,
                                      const WaveformOptions& opt) const {
  const std::size_t len = packet_samples(shifts.size()) +
                          (opt.frac_delay > 0.0 ? 1 : 0);
  IqBuffer out(len);
  const double cfo_cycles = p_.cfo_hz_to_cycles(opt.cfo_hz);
  const double n = static_cast<double>(p_.n_bins());
  const float amp = static_cast<float>(opt.amplitude);

  for (std::size_t i = 0; i < len; ++i) {
    const double t = (static_cast<double>(i) - opt.frac_delay) / p_.osf;
    cfloat v = eval_shifts(t, shifts);
    if (v == cfloat{0.0f, 0.0f}) continue;
    // CFO rotates the carrier continuously over the whole packet.
    const double ph = kTwoPi * cfo_cycles * t / n;
    const cfloat rot{static_cast<float>(std::cos(ph)),
                     static_cast<float>(std::sin(ph))};
    out[i] = amp * v * rot;
  }
  return out;
}

}  // namespace tnb::lora
