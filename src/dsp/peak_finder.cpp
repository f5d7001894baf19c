#include "dsp/peak_finder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tnb::dsp {
namespace {

/// Parabolic interpolation of the true maximum around sample `i`.
double interpolate_peak(std::span<const float> x, std::size_t i) {
  if (i == 0 || i + 1 >= x.size()) return static_cast<double>(i);
  const double ym1 = x[i - 1];
  const double y0 = x[i];
  const double yp1 = x[i + 1];
  const double denom = ym1 - 2.0 * y0 + yp1;
  if (denom >= 0.0) return static_cast<double>(i);  // not a strict max
  const double delta = 0.5 * (ym1 - yp1) / denom;
  return static_cast<double>(i) + std::clamp(delta, -0.5, 0.5);
}

/// Core linear-scan peak search over `x` with selectivity `sel`, calling
/// `emit(i)` for each peak in increasing index order.
///
/// Walks the samples tracking the deepest valley since the last accepted
/// peak. A local maximum becomes a candidate once it rises `sel` above that
/// valley; it is accepted once the signal subsequently drops `sel` below the
/// candidate (or the series ends). A later, higher maximum before that drop
/// replaces the candidate — identical in effect to Yoder's alternating
/// max/min scan.
template <class Emit>
void scan(std::span<const float> x, double sel, Emit&& emit) {
  const std::size_t n = x.size();
  if (n == 0) return;

  double left_min = x[0];
  bool have_candidate = false;
  double cand_mag = -std::numeric_limits<double>::infinity();
  std::size_t cand_idx = 0;

  for (std::size_t i = 1; i < n; ++i) {
    const double v = x[i];
    if (have_candidate) {
      if (v > cand_mag) {
        cand_mag = v;
        cand_idx = i;
      } else if (cand_mag - v >= sel) {
        emit(cand_idx);
        have_candidate = false;
        left_min = v;
      }
    } else {
      if (v < left_min) left_min = v;
      if (v - left_min >= sel) {
        have_candidate = true;
        cand_mag = v;
        cand_idx = i;
      }
    }
  }
  // Yoder keeps a trailing candidate only when endpoints are included; for
  // signal vectors a candidate at the very end that never descended is still
  // a real peak if it rose by sel, so keep it.
  if (have_candidate) emit(cand_idx);
}

}  // namespace

std::vector<Peak> find_peaks(std::span<const float> x,
                             const PeakFinderOptions& opt) {
  std::vector<Peak> result;
  const std::size_t n = x.size();
  if (n < 2) return result;

  double sel = opt.sel;
  if (sel < 0.0) {
    const auto [mn, mx] = std::minmax_element(x.begin(), x.end());
    sel = (static_cast<double>(*mx) - static_cast<double>(*mn)) / 4.0;
  }

  const auto keep = [&](std::size_t i) {
    if (opt.use_threshold && x[i] < opt.threshold) return;
    result.push_back(Peak{i, x[i], interpolate_peak(x, i)});
  };
  if (opt.circular) {
    // Extend by half the vector on both sides so peaks near the wrap point
    // see their true valleys (three block copies: last half, all, first
    // half), then keep the peaks of the middle copy. scan() emits indices
    // in increasing order, so each bin is kept at most once.
    const std::size_t ext = n / 2;
    const auto half = static_cast<std::ptrdiff_t>(ext);
    std::vector<float> wrapped;
    wrapped.reserve(n + 2 * ext);
    wrapped.insert(wrapped.end(), x.end() - half, x.end());
    wrapped.insert(wrapped.end(), x.begin(), x.end());
    wrapped.insert(wrapped.end(), x.begin(), x.begin() + half);
    scan(wrapped, sel, [&](std::size_t i) {
      if (i >= ext && i < ext + n) keep(i - ext);
    });
  } else {
    scan(x, sel, keep);
  }

  std::sort(result.begin(), result.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });
  if (opt.max_peaks != 0 && result.size() > opt.max_peaks) {
    result.resize(opt.max_peaks);
  }
  return result;
}

}  // namespace tnb::dsp
