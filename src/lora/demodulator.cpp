#include "lora/demodulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_backend.hpp"
#include "lora/chirp.hpp"
#include "lora/coding.hpp"

namespace tnb::lora {

void Workspace::reserve(const Params& p) {
  const std::size_t sps = p.sps();
  if (sps_ == sps) return;
  sps_ = sps;
  spectrum_.resize(sps);
}

const cfloat* Workspace::phasor(double cfo_cycles, std::size_t sps) {
  ++stamp_;
  Phasor* victim = &phasors_[0];
  for (Phasor& e : phasors_) {
    if (e.stamp != 0 && e.cfo == cfo_cycles && e.table.size() == sps) {
      e.stamp = stamp_;
      return e.table.data();
    }
    if (e.stamp < victim->stamp) victim = &e;
  }
  victim->cfo = cfo_cycles;
  victim->stamp = stamp_;
  victim->table.resize(sps);
  // The exact incremental recurrence of the scalar loop this table
  // replaces: rot_{i+1} = rot_i * step with step = e^{-j 2 pi cfo / sps},
  // renormalized every 1024 samples against drift. Moving the sequential
  // recurrence (and its renormalization branch) out of the per-symbol
  // loop is what keeps the applied rotation bit-identical while making
  // the hot loop a pure elementwise product.
  const double dphi = -kTwoPi * cfo_cycles / static_cast<double>(sps);
  const cfloat step{static_cast<float>(std::cos(dphi)),
                    static_cast<float>(std::sin(dphi))};
  cfloat rot{1.0f, 0.0f};
  for (std::size_t i = 0; i < sps; ++i) {
    victim->table[i] = rot;
    rot *= step;
    if ((i & 0x3FF) == 0x3FF) rot /= std::abs(rot);  // renormalize drift
  }
  return victim->table.data();
}

Demodulator::Demodulator(Params p)
    : p_(p), downchirp_(make_downchirp(p_)), upchirp_(make_upchirp(p_)) {
  p_.validate();
}

void Demodulator::dechirp_fft_into(std::span<const cfloat> window,
                                   double cfo_cycles, bool up, Workspace& ws,
                                   std::span<cfloat> out) const {
  const std::size_t sps = p_.sps();
  if (window.size() > sps) {
    throw std::invalid_argument("dechirp_fft: window longer than a symbol");
  }
  if (out.size() != sps) {
    throw std::invalid_argument("dechirp_fft_into: out must be sps long");
  }
  ws.reserve(p_);
  const std::vector<cfloat>& ref = up ? downchirp_ : upchirp_;
  const cfloat* phasor = ws.phasor(cfo_cycles, sps);
  dsp::active_fft_backend().dechirp_rotate(window.data(), window.size(),
                                           ref.data(), phasor, out.data());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(window.size()),
            out.end(), cfloat{0.0f, 0.0f});
  dsp::fft_plan(sps).forward(out);
}

void Demodulator::dechirp_fft_batch_into(std::span<const cfloat> windows,
                                         std::size_t count, double cfo_cycles,
                                         bool up, Workspace& ws,
                                         std::span<cfloat> out) const {
  const std::size_t sps = p_.sps();
  if (windows.size() != count * sps || out.size() != count * sps) {
    throw std::invalid_argument(
        "dechirp_fft_batch_into: buffers must be count * sps long");
  }
  if (count == 0) return;
  ws.reserve(p_);
  const std::vector<cfloat>& ref = up ? downchirp_ : upchirp_;
  const cfloat* phasor = ws.phasor(cfo_cycles, sps);
  const dsp::FftBackend& be = dsp::active_fft_backend();
  for (std::size_t b = 0; b < count; ++b) {
    be.dechirp_rotate(windows.data() + b * sps, sps, ref.data(), phasor,
                      out.data() + b * sps);
  }
  dsp::fft_plan(sps).forward_batch(out, count);
}

void Demodulator::fold(std::span<const cfloat> spectrum, SignalVector& out) const {
  const std::size_t n = p_.n_bins();
  if (spectrum.size() != p_.sps()) {
    throw std::invalid_argument("fold: spectrum length must be sps");
  }
  if (out.size() != n) out.resize(n);
  const std::size_t image = p_.osf == 1 ? 0 : n * (p_.osf - 1);
  dsp::active_fft_backend().mag_fold(spectrum.data(), n, image, out.data());
}

double Demodulator::folded_power_at(std::span<const cfloat> spectrum,
                                    std::size_t bin) const {
  const std::size_t n = p_.n_bins();
  double e = std::norm(spectrum[bin]);
  if (p_.osf > 1) e += std::norm(spectrum[bin + n * (p_.osf - 1)]);
  return e;
}

void Demodulator::signal_vector_into(std::span<const cfloat> window,
                                     double cfo_cycles, bool up, Workspace& ws,
                                     SignalVector& out) const {
  ws.reserve(p_);
  const std::span<cfloat> spec(ws.spectrum_.data(), p_.sps());
  dechirp_fft_into(window, cfo_cycles, up, ws, spec);
  fold(spec, out);
}

std::size_t Demodulator::argmax(std::span<const float> sv) {
  return static_cast<std::size_t>(
      std::max_element(sv.begin(), sv.end()) - sv.begin());
}

std::uint32_t Demodulator::demod_value(std::span<const cfloat> window,
                                       double cfo_cycles, Workspace& ws) const {
  return value_for_bin(coding_table(Coding::kPaper), p_.sf,
                       demod_bin(window, cfo_cycles, ws), p_.ldro);
}

std::uint32_t Demodulator::demod_bin(std::span<const cfloat> window,
                                     double cfo_cycles, Workspace& ws) const {
  signal_vector_into(window, cfo_cycles, /*up=*/true, ws, ws.sv_);
  return static_cast<std::uint32_t>(argmax(ws.sv_));
}

}  // namespace tnb::lora
