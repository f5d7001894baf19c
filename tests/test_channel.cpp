#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.hpp"
#include "channel/fading.hpp"
#include "channel/tdl.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"

namespace tnb::chan {
namespace {

TEST(Awgn, NoisePowerMatchesRequest) {
  Rng rng(1);
  IqBuffer buf(100000, cfloat{0.0f, 0.0f});
  add_awgn(buf, 4.0, rng);
  double p = 0.0;
  for (const cfloat& v : buf) p += std::norm(v);
  EXPECT_NEAR(p / static_cast<double>(buf.size()), 4.0, 0.1);
}

TEST(Awgn, ZeroPowerIsNoop) {
  Rng rng(2);
  IqBuffer buf(64, cfloat{1.0f, 2.0f});
  add_awgn(buf, 0.0, rng);
  for (const cfloat& v : buf) {
    EXPECT_EQ(v.real(), 1.0f);
    EXPECT_EQ(v.imag(), 2.0f);
  }
}

TEST(Awgn, SnrConventionConsistent) {
  // With unit in-band noise, a 10 dB packet has amplitude sqrt(10); the
  // full-band per-sample noise variance is OSF.
  EXPECT_NEAR(amplitude_for_snr_db(10.0), std::sqrt(10.0), 1e-9);
  EXPECT_NEAR(fullband_noise_power(8), 8.0, 1e-12);
}

TEST(SlowFlatFading, PreservesLengthAndVariesGain) {
  Rng rng(3);
  SlowFlatFadingChannel ch(0.5, 0.01);
  IqBuffer buf(100000, cfloat{1.0f, 0.0f});
  ch.apply(buf, 1e6, rng);
  ASSERT_EQ(buf.size(), 100000u);
  float mn = 1e9f, mx = -1e9f;
  for (const cfloat& v : buf) {
    mn = std::min(mn, std::abs(v));
    mx = std::max(mx, std::abs(v));
  }
  EXPECT_GT(mx / mn, 1.01f);  // gain actually fluctuates
  EXPECT_GT(mn, 0.0f);
}

TEST(SlowFlatFading, ContinuousAcrossStepBoundaries) {
  Rng rng(4);
  SlowFlatFadingChannel ch(1.0, 0.001);
  IqBuffer buf(10000, cfloat{1.0f, 0.0f});
  ch.apply(buf, 1e6, rng);
  // Interpolated gain: adjacent samples differ by a tiny factor.
  for (std::size_t i = 1; i < buf.size(); ++i) {
    const float a = std::abs(buf[i - 1]);
    const float b = std::abs(buf[i]);
    EXPECT_LT(std::abs(a - b) / a, 0.02f) << "jump at " << i;
  }
}

TEST(Jakes, UnitAveragePower) {
  Rng rng(5);
  double p = 0.0;
  const int realizations = 200;
  const int samples = 50;
  for (int r = 0; r < realizations; ++r) {
    JakesProcess fader(5.0, rng);
    for (int i = 0; i < samples; ++i) {
      p += std::norm(fader.at(i * 0.05));
    }
  }
  EXPECT_NEAR(p / (realizations * samples), 1.0, 0.1);
}

TEST(Jakes, CoherentOverShortTimes) {
  Rng rng(6);
  JakesProcess fader(5.0, rng);
  // At 5 Hz Doppler the channel barely moves within 1 ms.
  const cfloat a = fader.at(0.0);
  const cfloat b = fader.at(0.001);
  EXPECT_LT(std::abs(a - b), 0.1f);
}

TEST(Jakes, DecorrelatesOverLongTimes) {
  Rng rng(7);
  // Correlation between g(0) and g(1s) at 5 Hz Doppler is well below 1.
  double corr = 0.0, p0 = 0.0, p1 = 0.0;
  for (int r = 0; r < 500; ++r) {
    JakesProcess fader(5.0, rng);
    const cfloat a = fader.at(0.0);
    const cfloat b = fader.at(1.0);
    corr += (a * std::conj(b)).real();
    p0 += std::norm(a);
    p1 += std::norm(b);
  }
  EXPECT_LT(std::abs(corr) / std::sqrt(p0 * p1), 0.4);
}

TEST(Etu, PreservesAveragePower) {
  Rng rng(8);
  TdlChannel ch(etu_profile(), 5.0);
  double pin = 0.0, pout = 0.0;
  for (int r = 0; r < 20; ++r) {
    IqBuffer buf(20000, cfloat{1.0f, 0.0f});
    pin += static_cast<double>(buf.size());
    ch.apply(buf, 1e6, rng);
    for (const cfloat& v : buf) pout += std::norm(v);
  }
  // Rayleigh fading: unit mean power across realizations (loose tolerance).
  EXPECT_NEAR(pout / pin, 1.0, 0.35);
}

TEST(Etu, IntroducesDelaySpread) {
  // An impulse through ETU must produce energy at the 5 us tap.
  Rng rng(9);
  TdlChannel ch(etu_profile(), 5.0);
  bool found_late_energy = false;
  for (int r = 0; r < 10 && !found_late_energy; ++r) {
    IqBuffer buf(16, cfloat{0.0f, 0.0f});
    buf[0] = {1.0f, 0.0f};
    ch.apply(buf, 1e6, rng);
    // 5 us at 1 Msps = sample 5.
    if (std::abs(buf[5]) > 0.05f) found_late_energy = true;
  }
  EXPECT_TRUE(found_late_energy);
}

TEST(Etu, OutputDiffersAcrossRealizations) {
  Rng rng(10);
  TdlChannel ch(etu_profile(), 5.0);
  IqBuffer a(100, cfloat{1.0f, 0.0f});
  IqBuffer b(100, cfloat{1.0f, 0.0f});
  ch.apply(a, 1e6, rng);
  ch.apply(b, 1e6, rng);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 0.1);
}

TEST(Etu, EmptyBufferIsSafe) {
  Rng rng(11);
  TdlChannel ch(etu_profile(), 5.0);
  IqBuffer empty;
  ch.apply(empty, 1e6, rng);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(IdentityChannel, LeavesSignalUntouched) {
  Rng rng(12);
  IdentityChannel ch;
  IqBuffer buf(32, cfloat{0.5f, -0.5f});
  ch.apply(buf, 1e6, rng);
  for (const cfloat& v : buf) EXPECT_EQ(v, (cfloat{0.5f, -0.5f}));
}

}  // namespace
}  // namespace tnb::chan
