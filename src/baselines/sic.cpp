#include "baselines/sic.hpp"

#include <cmath>

#include "lora/modulator.hpp"

namespace tnb::base {
namespace {

/// Cancellation rounds, each a full decode of the residual.
constexpr int kMaxRounds = 6;

}  // namespace

SicDecoder::SicDecoder(lora::Params p,
                       std::optional<rx::ImplicitHeader> implicit,
                       lora::Coding coding)
    : p_(p) {
  p_.validate();
  vanilla_.use_bec = false;
  vanilla_.two_pass = false;
  vanilla_.implicit_header = implicit;
  vanilla_.coding = coding;
}

void SicDecoder::cancel(IqBuffer& work, const sim::DecodedPacket& pkt,
                        const rx::FrameCodec& codec) const {
  const auto shifts = codec.encode_shifts(pkt.payload);
  const lora::Modulator mod(p_);
  lora::WaveformOptions wopt;
  const double start_floor = std::floor(pkt.start_sample);
  wopt.frac_delay = pkt.start_sample - start_floor;
  wopt.cfo_hz = pkt.cfo_hz;
  const IqBuffer ref = mod.synthesize_shifts(shifts, wopt);

  const std::ptrdiff_t t0 = static_cast<std::ptrdiff_t>(start_floor);
  const std::size_t sps = p_.sps();
  // Per-symbol complex gain: robust to slow fading across the packet.
  for (std::size_t off = 0; off < ref.size(); off += sps) {
    const std::size_t len = std::min(sps, ref.size() - off);
    std::complex<double> num{0.0, 0.0};
    double den = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      const std::ptrdiff_t t = t0 + static_cast<std::ptrdiff_t>(off + i);
      if (t < 0 || t >= static_cast<std::ptrdiff_t>(work.size())) continue;
      const cfloat w = work[static_cast<std::size_t>(t)];
      const cfloat r = ref[off + i];
      num += std::complex<double>(w.real(), w.imag()) *
             std::conj(std::complex<double>(r.real(), r.imag()));
      den += std::norm(r);
    }
    if (den <= 0.0) continue;
    const cfloat gain{static_cast<float>(num.real() / den),
                      static_cast<float>(num.imag() / den)};
    for (std::size_t i = 0; i < len; ++i) {
      const std::ptrdiff_t t = t0 + static_cast<std::ptrdiff_t>(off + i);
      if (t < 0 || t >= static_cast<std::ptrdiff_t>(work.size())) continue;
      work[static_cast<std::size_t>(t)] -= gain * ref[off + i];
    }
  }
}

std::vector<sim::DecodedPacket> SicDecoder::decode(
    std::span<const cfloat> trace, Rng& rng) const {
  IqBuffer work(trace.begin(), trace.end());
  std::vector<sim::DecodedPacket> out;
  const rx::Receiver vanilla(p_, vanilla_);
  const double dup_tol = 0.5 * static_cast<double>(p_.sps());

  for (int round = 0; round < kMaxRounds; ++round) {
    const auto decoded = vanilla.decode(work, rng);
    std::size_t fresh = 0;
    for (const sim::DecodedPacket& pkt : decoded) {
      bool dup = false;
      for (const sim::DecodedPacket& seen : out) {
        if (std::abs(seen.start_sample - pkt.start_sample) < dup_tol) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
      out.push_back(pkt);
      cancel(work, pkt, vanilla.codec());
      ++fresh;
    }
    if (fresh == 0) break;  // residual yields nothing new
  }
  return out;
}

}  // namespace tnb::base
