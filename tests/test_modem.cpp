#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "lora/chirp.hpp"
#include "lora/demodulator.hpp"
#include "lora/coding.hpp"
#include "lora/gray.hpp"
#include "lora/modulator.hpp"

namespace tnb::lora {
namespace {

/// The folded signal vector of `window`, demodulated with `ws`.
SignalVector signal_vector(const Demodulator& demod, Workspace& ws,
                           std::span<const cfloat> window, double cfo_cycles,
                           bool up = true) {
  SignalVector sv;
  demod.signal_vector_into(window, cfo_cycles, up, ws, sv);
  return sv;
}

TEST(Chirp, UnitAmplitudeEverywhere) {
  Params p{.sf = 8, .osf = 4};
  const auto up = make_upchirp(p);
  for (const cfloat& v : up) EXPECT_NEAR(std::abs(v), 1.0f, 1e-5f);
}

TEST(Chirp, DownchirpIsConjugate) {
  Params p{.sf = 7, .osf = 2};
  const auto up = make_upchirp(p);
  const auto down = make_downchirp(p);
  for (std::size_t i = 0; i < up.size(); ++i) {
    EXPECT_NEAR(down[i].real(), up[i].real(), 1e-6f);
    EXPECT_NEAR(down[i].imag(), -up[i].imag(), 1e-6f);
  }
}

TEST(Chirp, ShiftedChirpIsCyclicRotation) {
  Params p{.sf = 8, .osf = 1};
  const auto base = make_upchirp(p, 0);
  const auto shifted = make_upchirp(p, 37);
  const std::size_t n = p.n_bins();
  for (std::size_t i = 0; i < n; ++i) {
    const cfloat expect = base[(i + 37) % n];
    EXPECT_NEAR(shifted[i].real(), expect.real(), 1e-5f);
    EXPECT_NEAR(shifted[i].imag(), expect.imag(), 1e-5f);
  }
}

class ModemShifts : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(ModemShifts, DemodRecoversEveryShiftStride) {
  const auto [sf, osf] = GetParam();
  Params p{.sf = sf, .osf = osf};
  Demodulator demod(p);
  Workspace ws(p);
  // Sweep shifts with a stride to keep runtime sane but cover the range.
  const std::uint32_t n = static_cast<std::uint32_t>(p.n_bins());
  for (std::uint32_t h = 0; h < n; h += 7) {
    const auto sym = make_upchirp(p, h);
    const SignalVector sv = signal_vector(demod, ws, sym, 0.0);
    EXPECT_EQ(Demodulator::argmax(sv), h);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SfOsfGrid, ModemShifts,
    ::testing::Combine(::testing::Values(7u, 8u, 10u),
                       ::testing::Values(1u, 2u, 8u)));

// synthesize_shifts reads each chirp value from a per-packet table keyed by
// its exact base-chirp position. It must equal the per-sample reference,
// amplitude * eval_shifts(t) * CFO rotation, bit for bit: at power-of-two
// OSF, where the table serves nearly every sample, and at OSF 3 and 5,
// where positions fall off the table's lattice and miss.
class SynthesisIdentity
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(SynthesisIdentity, TableEqualsPerSampleReference) {
  const auto [sf, osf] = GetParam();
  Params p{.sf = sf, .cr = 4, .bandwidth_hz = 125e3, .osf = osf};
  p.ldro = sf >= 11;
  const Modulator mod(p);
  Rng rng(16 * sf + osf);
  std::vector<std::uint32_t> shifts(12);
  for (auto& h : shifts) h = static_cast<std::uint32_t>(rng.next());
  // Zero, a round sub-sample delay, and the fractional part of a trace
  // position, as sim::build_trace derives it.
  const double start = 987654.0 + rng.uniform();
  for (const double frac : {0.0, 0.37, start - std::floor(start)}) {
    WaveformOptions w;
    w.frac_delay = frac;
    w.cfo_hz = 1700.0;
    w.amplitude = 0.8;
    const IqBuffer got = mod.synthesize_shifts(shifts, w);
    ASSERT_EQ(got.size(),
              mod.packet_samples(shifts.size()) + (frac > 0.0 ? 1 : 0));
    const double cfo = p.cfo_hz_to_cycles(w.cfo_hz);
    const double n = static_cast<double>(p.n_bins());
    const float amp = static_cast<float>(w.amplitude);
    std::size_t mismatches = 0, first = got.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double t = (static_cast<double>(i) - frac) / p.osf;
      const cfloat v = mod.eval_shifts(t, shifts);
      cfloat want{0.0f, 0.0f};
      if (v != cfloat{0.0f, 0.0f}) {
        const double ph = kTwoPi * cfo * t / n;
        want = amp * v *
               cfloat{static_cast<float>(std::cos(ph)),
                      static_cast<float>(std::sin(ph))};
      }
      if (std::memcmp(&got[i], &want, sizeof want) != 0) {
        if (mismatches++ == 0) first = i;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "frac_delay " << frac << ", first at sample "
                              << first;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SfOsfGrid, SynthesisIdentity,
    ::testing::Combine(::testing::Values(7u, 8u, 9u, 10u, 11u, 12u),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u)));

TEST(Modem, PeakHeightDropsWithTimingError) {
  // Paper Fig. 1(b): a misaligned window lowers the peak.
  Params p{.sf = 8, .osf = 8};
  Modulator mod(p);
  Demodulator demod(p);
  Workspace ws(p);
  std::vector<std::uint32_t> data(8, 0);
  const IqBuffer pkt = mod.synthesize_shifts(data);

  const std::size_t sps = p.sps();
  // Aligned window over the first preamble upchirp.
  const SignalVector aligned = signal_vector(demod, ws,
      std::span<const cfloat>(pkt).subspan(0, sps), 0.0);
  // Misaligned by a quarter symbol.
  const SignalVector shifted = signal_vector(demod, ws,
      std::span<const cfloat>(pkt).subspan(sps / 4, sps), 0.0);
  const float peak_aligned = *std::max_element(aligned.begin(), aligned.end());
  const float peak_shifted = *std::max_element(shifted.begin(), shifted.end());
  EXPECT_LT(peak_shifted, 0.8f * peak_aligned);
}

TEST(Modem, PeakHeightDropsWithResidualCfo) {
  // Paper Fig. 1(c): 0.5 cycles of residual CFO lowers the peak sharply.
  Params p{.sf = 8, .osf = 8};
  Demodulator demod(p);
  Workspace ws(p);
  const auto sym = make_upchirp(p, 42);
  const SignalVector clean = signal_vector(demod, ws, sym, 0.0);
  const SignalVector off = signal_vector(demod, ws, sym, 0.5);
  EXPECT_LT(off[42], 0.6f * clean[42]);
  // Correcting the CFO that was actually applied restores the peak.
  Modulator mod(p);
  std::vector<std::uint32_t> one_sym{42};
  WaveformOptions opt;
  opt.cfo_hz = p.cfo_cycles_to_hz(0.5);
  const IqBuffer pkt = mod.synthesize_shifts(one_sym, opt);
  // Data symbols start after the 12.25-symbol preamble.
  const std::size_t start = static_cast<std::size_t>(12.25 * p.sps());
  const SignalVector corrected = signal_vector(demod, ws,
      std::span<const cfloat>(pkt).subspan(start, p.sps()), 0.5);
  EXPECT_EQ(Demodulator::argmax(corrected), 42u);
  EXPECT_GT(corrected[42], 0.9f * clean[42]);
}

TEST(Modem, IntegerCfoShiftsPeakBin) {
  Params p{.sf = 8, .osf = 8};
  Demodulator demod(p);
  Workspace ws(p);
  const auto sym = make_upchirp(p, 100);
  // Without correction, +3 cycles/symbol of CFO moves the peak 3 bins up.
  Modulator mod(p);
  std::vector<std::uint32_t> one_sym{100};
  WaveformOptions opt;
  opt.cfo_hz = p.cfo_cycles_to_hz(3.0);
  const IqBuffer pkt = mod.synthesize_shifts(one_sym, opt);
  const std::size_t start = static_cast<std::size_t>(12.25 * p.sps());
  const SignalVector sv = signal_vector(demod, ws,
      std::span<const cfloat>(pkt).subspan(start, p.sps()), 0.0);
  EXPECT_EQ(Demodulator::argmax(sv), 103u);
}

TEST(Modem, PreambleLayoutPeaks) {
  Params p{.sf = 8, .osf = 8};
  Modulator mod(p);
  Demodulator demod(p);
  Workspace ws(p);
  std::vector<std::uint32_t> data(10, 5);
  const IqBuffer pkt = mod.synthesize_shifts(data);
  const std::size_t sps = p.sps();

  // 8 upchirps at bin 0.
  for (std::size_t s = 0; s < kPreambleUpchirps; ++s) {
    const SignalVector sv = signal_vector(demod, ws,
        std::span<const cfloat>(pkt).subspan(s * sps, sps), 0.0);
    EXPECT_EQ(Demodulator::argmax(sv), 0u) << "upchirp " << s;
  }
  // Sync symbols at bins 8 and 16 (locations 9 and 17, 1-indexed).
  const SignalVector sync1 = signal_vector(demod, ws,
      std::span<const cfloat>(pkt).subspan(8 * sps, sps), 0.0);
  EXPECT_EQ(Demodulator::argmax(sync1), kSyncShift1);
  const SignalVector sync2 = signal_vector(demod, ws,
      std::span<const cfloat>(pkt).subspan(9 * sps, sps), 0.0);
  EXPECT_EQ(Demodulator::argmax(sync2), kSyncShift2);
  // Downchirps demodulate at bin 0 with the upchirp reference.
  const SignalVector down = signal_vector(demod, ws,
      std::span<const cfloat>(pkt).subspan(10 * sps, sps), 0.0, /*up=*/false);
  EXPECT_EQ(Demodulator::argmax(down), 0u);
}

TEST(Modem, FullPacketSymbolRecovery) {
  Params p{.sf = 8, .cr = 3, .osf = 8};
  Modulator mod(p);
  Demodulator demod(p);
  Workspace ws(p);
  Rng rng(4);
  std::vector<std::uint8_t> app(14);
  for (auto& b : app) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const auto tx_symbols = encode_frame(Coding::kPaper, p, app);
  const IqBuffer pkt = mod.synthesize_shifts(tx_symbols);

  const std::size_t sps = p.sps();
  const std::size_t data_start = static_cast<std::size_t>(12.25 * sps);
  for (std::size_t s = 0; s < tx_symbols.size(); ++s) {
    const std::uint32_t v = demod.demod_value(
        std::span<const cfloat>(pkt).subspan(data_start + s * sps, sps), 0.0,
        ws);
    EXPECT_EQ(v, value_for_bin(coding_table(Coding::kPaper), p.sf,
                               tx_symbols[s], p.ldro))
        << "symbol " << s;
  }
}

TEST(Modem, FractionalDelayHalfSampleStillDecodes) {
  Params p{.sf = 8, .osf = 8};
  Modulator mod(p);
  Demodulator demod(p);
  Workspace ws(p);
  std::vector<std::uint32_t> data{77};
  WaveformOptions opt;
  opt.frac_delay = 0.5;
  const IqBuffer pkt = mod.synthesize_shifts(data, opt);
  const std::size_t start = static_cast<std::size_t>(12.25 * p.sps());
  const SignalVector sv = signal_vector(demod, ws,
      std::span<const cfloat>(pkt).subspan(start, p.sps()), 0.0);
  // Half a receiver sample = 1/16 chirp sample: peak stays on its bin.
  EXPECT_EQ(Demodulator::argmax(sv), 77u);
}

TEST(Modem, AmplitudeScalesPower) {
  Params p{.sf = 7, .osf = 2};
  Modulator mod(p);
  Demodulator demod(p);
  Workspace ws(p);
  std::vector<std::uint32_t> data{10};
  WaveformOptions loud;
  loud.amplitude = 2.0;
  const IqBuffer quiet_pkt = mod.synthesize_shifts(data);
  const IqBuffer loud_pkt = mod.synthesize_shifts(data, loud);
  const std::size_t start = static_cast<std::size_t>(12.25 * p.sps());
  const SignalVector a = signal_vector(demod, ws,
      std::span<const cfloat>(quiet_pkt).subspan(start, p.sps()), 0.0);
  const SignalVector b = signal_vector(demod, ws,
      std::span<const cfloat>(loud_pkt).subspan(start, p.sps()), 0.0);
  EXPECT_NEAR(b[10] / a[10], 4.0f, 0.05f);
}

TEST(Modem, PacketSampleCountMatchesLayout) {
  Params p{.sf = 8, .osf = 8};
  Modulator mod(p);
  // 12.25 preamble symbols + 10 data symbols at 2048 samples per symbol.
  EXPECT_EQ(mod.packet_samples(10), static_cast<std::size_t>(22.25 * 2048));
}

TEST(Modem, ShortWindowZeroPads) {
  Params p{.sf = 8, .osf = 2};
  Demodulator demod(p);
  Workspace ws(p);
  const auto sym = make_upchirp(p, 50);
  // Half-symbol window: the peak survives (lower) at the right bin.
  const SignalVector sv = signal_vector(demod, ws,
      std::span<const cfloat>(sym).first(p.sps() / 2), 0.0);
  EXPECT_EQ(Demodulator::argmax(sv), 50u);
  const SignalVector full = signal_vector(demod, ws, sym, 0.0);
  EXPECT_LT(sv[50], full[50]);
}

TEST(Modem, WindowTooLongThrows) {
  Params p{.sf = 7, .osf = 1};
  Demodulator demod(p);
  Workspace ws(p);
  std::vector<cfloat> big(p.sps() + 1);
  EXPECT_THROW(signal_vector(demod, ws, big, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace tnb::lora
