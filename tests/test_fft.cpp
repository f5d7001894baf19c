#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"

namespace tnb::dsp {
namespace {

/// O(n^2) reference DFT.
std::vector<cfloat> naive_dft(std::span<const cfloat> x) {
  const std::size_t n = x.size();
  std::vector<cfloat> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -kTwoPi * static_cast<double>(k * i) / static_cast<double>(n);
      acc += std::complex<double>(x[i].real(), x[i].imag()) *
             std::complex<double>(std::cos(ang), std::sin(ang));
    }
    out[k] = {static_cast<float>(acc.real()), static_cast<float>(acc.imag())};
  }
  return out;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<cfloat> x(n);
  for (auto& v : x) v = rng.complex_normal();

  std::vector<cfloat> got = fft(x);
  std::vector<cfloat> want = naive_dft(x);
  const float tol = 1e-3f * static_cast<float>(n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), tol) << "bin " << k;
    EXPECT_NEAR(got[k].imag(), want[k].imag(), tol) << "bin " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, RoundTripIdentity) {
  Rng rng(99);
  std::vector<cfloat> x(2048);
  for (auto& v : x) v = rng.complex_normal();
  std::vector<cfloat> y = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-3f);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-3f);
  }
}

TEST(Fft, PureToneLandsOnItsBin) {
  const std::size_t n = 512;
  const std::size_t k0 = 37;
  std::vector<cfloat> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * static_cast<double>(k0 * i) / static_cast<double>(n);
    x[i] = {static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang))};
  }
  std::vector<cfloat> X = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0) {
      EXPECT_NEAR(std::abs(X[k]), static_cast<float>(n), 1e-2f * n);
    } else {
      EXPECT_LT(std::abs(X[k]), 1e-2f * n);
    }
  }
}

TEST(Fft, LinearityHolds) {
  Rng rng(5);
  const std::size_t n = 256;
  std::vector<cfloat> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.complex_normal();
    b[i] = rng.complex_normal();
    sum[i] = a[i] + 2.0f * b[i];
  }
  auto A = fft(a), B = fft(b), S = fft(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const cfloat want = A[k] + 2.0f * B[k];
    EXPECT_NEAR(S[k].real(), want.real(), 1e-2f);
    EXPECT_NEAR(S[k].imag(), want.imag(), 1e-2f);
  }
}

TEST(Fft, ParsevalEnergyConserved) {
  Rng rng(8);
  const std::size_t n = 1024;
  std::vector<cfloat> x(n);
  double te = 0.0;
  for (auto& v : x) {
    v = rng.complex_normal();
    te += std::norm(v);
  }
  auto X = fft(x);
  double fe = 0.0;
  for (auto& v : X) fe += std::norm(v);
  EXPECT_NEAR(fe / static_cast<double>(n), te, 1e-2 * te);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(1000), std::invalid_argument);
}

TEST(Fft, OutOfPlaceZeroPads) {
  const FftPlan& plan = fft_plan(64);
  std::vector<cfloat> in(16, cfloat{1.0f, 0.0f});
  std::vector<cfloat> out(64);
  plan.forward(in, out);
  // DC bin = sum of inputs = 16.
  EXPECT_NEAR(out[0].real(), 16.0f, 1e-3f);
  EXPECT_NEAR(out[0].imag(), 0.0f, 1e-3f);
}

TEST(Fft, PlanCacheReturnsSameInstance) {
  const FftPlan& a = fft_plan(128);
  const FftPlan& b = fft_plan(128);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 128u);
}

TEST(Fft, BitrevSwapsApplyTheBitReversePermutation) {
  for (std::size_t n = 2; n <= (std::size_t{1} << 15); n *= 2) {
    const FftPlan plan(n);
    std::vector<std::uint32_t> v(n);
    std::iota(v.begin(), v.end(), 0u);
    for (const FftPlan::Swap& s : plan.bitrev_swaps()) {
      ASSERT_LT(s.i, s.j) << "n=" << n;
      std::swap(v[s.i], v[s.j]);
    }
    const std::span<const std::uint32_t> rev = plan.bitrev();
    EXPECT_TRUE(std::equal(v.begin(), v.end(), rev.begin(), rev.end()))
        << "n=" << n;
  }
}

TEST(Fft, SizeOneIsIdentity) {
  FftPlan plan(1);
  std::vector<cfloat> x{cfloat{2.5f, -1.5f}};
  plan.forward(std::span<cfloat>(x));
  EXPECT_NEAR(x[0].real(), 2.5f, 1e-6f);
  EXPECT_NEAR(x[0].imag(), -1.5f, 1e-6f);
}

}  // namespace
}  // namespace tnb::dsp
