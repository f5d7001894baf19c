#include "dsp/smoother.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tnb::dsp {

std::vector<double> smooth_moving(std::span<const double> data,
                                  std::size_t window) {
  const std::size_t n = data.size();
  std::vector<double> out(data.begin(), data.end());
  if (n == 0 || window <= 1) return out;
  if (window % 2 == 0) ++window;
  const std::size_t half = window / 2;

  // Prefix sums give O(n) evaluation for any window.
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + data[i];

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    out[i] = (prefix[hi + 1] - prefix[lo]) / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::size_t default_smooth_window(std::size_t n) {
  // smoothdata picks a window from the data's energy distribution; for the
  // slowly-varying peak-height series here a fixed fraction works as well.
  std::size_t w = std::max<std::size_t>(3, n / 4);
  return std::min<std::size_t>(w, 25);
}

std::vector<double> smooth_fit(std::span<const double> data) {
  return smooth_moving(data, default_smooth_window(data.size()));
}

double median_in_place(std::span<double> data) {
  if (data.empty()) return 0.0;
  const auto mid = data.begin() + static_cast<std::ptrdiff_t>(data.size() / 2);
  std::nth_element(data.begin(), mid, data.end());
  double m = *mid;
  if (data.size() % 2 == 0) {
    // Lower middle: largest of the first half.
    const double lower = *std::max_element(data.begin(), mid);
    m = (m + lower) / 2.0;
  }
  return m;
}

double median_of(std::span<const double> data) {
  std::vector<double> tmp(data.begin(), data.end());
  return median_in_place(tmp);
}

double median_abs_dev(std::span<const double> data,
                      std::span<const double> fit) {
  if (data.size() != fit.size()) {
    throw std::invalid_argument("median_abs_dev: size mismatch");
  }
  std::vector<double> dev(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    dev[i] = std::abs(data[i] - fit[i]);
  }
  return median_in_place(dev);
}

}  // namespace tnb::dsp
