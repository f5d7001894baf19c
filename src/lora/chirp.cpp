#include "lora/chirp.hpp"

#include <cmath>

#include "common/math_util.hpp"

namespace tnb::lora {

double upchirp_phase(double x, std::size_t n_bins) {
  const double n = static_cast<double>(n_bins);
  return kTwoPi * (x * x / (2.0 * n) - x / 2.0);
}

double upchirp_position(double u, std::uint32_t h, std::size_t n_bins) {
  double x = u + static_cast<double>(h);
  const double n = static_cast<double>(n_bins);
  if (x >= n) x -= n;
  return x;
}

cfloat base_upchirp(double x, std::size_t n_bins) {
  const double ph = upchirp_phase(x, n_bins);
  return {static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph))};
}

cfloat eval_upchirp(double u, std::uint32_t h, std::size_t n_bins) {
  return base_upchirp(upchirp_position(u, h, n_bins), n_bins);
}

cfloat eval_downchirp(double u, std::size_t n_bins) {
  return std::conj(eval_upchirp(u, 0, n_bins));
}

std::vector<cfloat> make_upchirp(const Params& p, std::uint32_t shift) {
  const std::size_t sps = p.sps();
  std::vector<cfloat> out(sps);
  for (std::size_t i = 0; i < sps; ++i) {
    out[i] = eval_upchirp(static_cast<double>(i) / p.osf, shift, p.n_bins());
  }
  return out;
}

std::vector<cfloat> make_downchirp(const Params& p) {
  const std::size_t sps = p.sps();
  std::vector<cfloat> out(sps);
  for (std::size_t i = 0; i < sps; ++i) {
    out[i] = eval_downchirp(static_cast<double>(i) / p.osf, p.n_bins());
  }
  return out;
}

}  // namespace tnb::lora
