#include "dsp/smoother.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace tnb::dsp {
namespace {

TEST(Smoother, ConstantSeriesUnchanged) {
  std::vector<double> x(20, 5.0);
  auto y = smooth_moving(x, 5);
  for (double v : y) EXPECT_NEAR(v, 5.0, 1e-12);
}

TEST(Smoother, WindowOneIsIdentity) {
  std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  auto y = smooth_moving(x, 1);
  EXPECT_EQ(y, x);
}

TEST(Smoother, LinearTrendPreservedInInterior) {
  std::vector<double> x(30);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 2.0 * static_cast<double>(i) + 1.0;
  auto y = smooth_moving(x, 5);
  // A centered mean of a linear function equals the function away from edges.
  for (std::size_t i = 2; i + 2 < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-9);
}

TEST(Smoother, EdgeWindowsShrinkLikeMovmean) {
  std::vector<double> x{0.0, 3.0, 6.0, 9.0, 12.0};
  auto y = smooth_moving(x, 3);
  EXPECT_NEAR(y[0], (0.0 + 3.0) / 2.0, 1e-12);       // window [0,1]
  EXPECT_NEAR(y[1], (0.0 + 3.0 + 6.0) / 3.0, 1e-12); // window [0,2]
  EXPECT_NEAR(y[4], (9.0 + 12.0) / 2.0, 1e-12);      // window [3,4]
}

TEST(Smoother, EvenWindowForcedOdd) {
  std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  auto y4 = smooth_moving(x, 4);  // becomes 5
  auto y5 = smooth_moving(x, 5);
  EXPECT_EQ(y4, y5);
}

TEST(Smoother, ReducesNoiseVariance) {
  Rng rng(31);
  std::vector<double> x(500);
  for (auto& v : x) v = rng.normal();
  auto y = smooth_moving(x, 9);
  double vx = 0.0, vy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    vx += x[i] * x[i];
    vy += y[i] * y[i];
  }
  EXPECT_LT(vy, vx / 4.0);  // 9-sample mean cuts variance ~9x
}

TEST(Smoother, DefaultWindowBounds) {
  EXPECT_GE(default_smooth_window(4), 3u);
  EXPECT_LE(default_smooth_window(1000), 25u);
  EXPECT_EQ(default_smooth_window(40), 10u);
}

TEST(Smoother, MedianOddEven) {
  std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_NEAR(median_of(odd), 2.0, 1e-12);
  std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_NEAR(median_of(even), 2.5, 1e-12);
  std::vector<double> empty;
  EXPECT_EQ(median_of(empty), 0.0);
  EXPECT_EQ(median_in_place(empty), 0.0);
  // In place: the same value, with `data` reordered around the middle.
  EXPECT_EQ(median_in_place(even), 2.5);
  EXPECT_EQ(even[2], 3.0);
  EXPECT_EQ(median_in_place(odd), 2.0);
  EXPECT_EQ(odd[1], 2.0);
}

TEST(Smoother, MedianAbsDev) {
  std::vector<double> data{1.0, 2.0, 3.0, 10.0};
  std::vector<double> fit{1.0, 2.0, 3.0, 4.0};
  // Deviations: 0,0,0,6 -> median 0.
  EXPECT_NEAR(median_abs_dev(data, fit), 0.0, 1e-12);
  std::vector<double> fit2{0.0, 1.0, 5.0, 9.0};
  // Deviations: 1,1,2,1 -> median 1.
  EXPECT_NEAR(median_abs_dev(data, fit2), 1.0, 1e-12);
}

TEST(Smoother, MedianAbsDevSizeMismatchThrows) {
  std::vector<double> a{1.0, 2.0};
  std::vector<double> b{1.0};
  EXPECT_THROW(median_abs_dev(a, b), std::invalid_argument);
}

TEST(Smoother, SmoothFitTracksSlowTrend) {
  // Slow sinusoid + noise: the fit should stay within a fraction of the
  // noise amplitude of the trend.
  Rng rng(37);
  const std::size_t n = 200;
  std::vector<double> trend(n), data(n);
  for (std::size_t i = 0; i < n; ++i) {
    trend[i] = 10.0 + 3.0 * std::sin(static_cast<double>(i) / 40.0);
    data[i] = trend[i] + rng.normal(0.0, 0.5);
  }
  auto fit = smooth_fit(data);
  double err = 0.0;
  for (std::size_t i = 10; i + 10 < n; ++i) err += std::abs(fit[i] - trend[i]);
  err /= static_cast<double>(n - 20);
  EXPECT_LT(err, 0.4);
}

}  // namespace
}  // namespace tnb::dsp
