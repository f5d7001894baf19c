#include "testing/reference_frac_sync.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math_util.hpp"
#include "core/window.hpp"
#include "lora/demodulator.hpp"

namespace tnb::testing {

ReferenceRefine reference_refine(const lora::Params& p,
                                 std::span<const cfloat> trace, double t0,
                                 double cfo_cycles) {
  const std::size_t sps = p.sps();
  const lora::Demodulator demod(p);
  const rx::FracSync fsync(p);
  lora::Workspace ws(p);
  std::vector<std::vector<cfloat>> up_spec, down_spec;
  {
    std::vector<cfloat> window(sps);
    const auto spectrum = [&](int m, bool up) {
      rx::extract_window(trace, t0 + m * static_cast<double>(sps), window);
      std::vector<cfloat> spec(sps);
      demod.dechirp_fft_into(window, cfo_cycles, up, ws, spec);
      return spec;
    };
    for (int m = 0; m < static_cast<int>(lora::kPreambleUpchirps); ++m) {
      up_spec.push_back(spectrum(m, true));
    }
    for (int m = 10; m <= 11; ++m) down_spec.push_back(spectrum(m, false));
  }

  // Phase 1: 17 ungated df candidates re-weighting the spectra at t0.
  double best_q = -1.0, df_star = 0.0;
  std::vector<cfloat> up_sum(sps), down_sum(sps);
  SignalVector up_sv, down_sv;
  for (int i = 0; i <= 16; ++i) {
    const double df = -1.0 + static_cast<double>(i) / 16.0;
    std::fill(up_sum.begin(), up_sum.end(), cfloat{0.0f, 0.0f});
    std::fill(down_sum.begin(), down_sum.end(), cfloat{0.0f, 0.0f});
    auto rotate_add = [&](std::vector<cfloat>& sum,
                          const std::vector<cfloat>& spec, int m) {
      const double ph = -kTwoPi * (cfo_cycles + df) * static_cast<double>(m);
      const cfloat rot{static_cast<float>(std::cos(ph)),
                       static_cast<float>(std::sin(ph))};
      for (std::size_t k = 0; k < sps; ++k) sum[k] += spec[k] * rot;
    };
    for (int m = 0; m < static_cast<int>(up_spec.size()); ++m) {
      rotate_add(up_sum, up_spec[static_cast<std::size_t>(m)], m);
    }
    for (int m = 0; m < static_cast<int>(down_spec.size()); ++m) {
      rotate_add(down_sum, down_spec[static_cast<std::size_t>(m)], 10 + m);
    }
    demod.fold(up_sum, up_sv);
    demod.fold(down_sum, down_sv);
    const double v =
        static_cast<double>(up_sv[lora::Demodulator::argmax(up_sv)]) +
        static_cast<double>(down_sv[lora::Demodulator::argmax(down_sv)]);
    if (v > best_q) {
      best_q = v;
      df_star = df;
    }
  }

  // Phase 2: gated Q* on the lines df* and df* + 1, dt in {-1, ..., 1}.
  const auto q = [&](double dt, double df, bool gate) {
    return fsync.q(trace, t0, cfo_cycles, dt, df, gate, ws);
  };
  double best_q2 = 0.0, dt_hat = 0.0, df_hat = df_star;
  bool gated = false;
  for (int line = 0; line < 2; ++line) {
    const double df = df_star + static_cast<double>(line);
    for (int i = -2; i <= 2; ++i) {
      const double dt = static_cast<double>(i) / 2.0;
      const double v = q(dt, df, /*gate=*/true);
      if (v > best_q2) {
        best_q2 = v;
        dt_hat = dt;
        df_hat = df;
        gated = true;
      }
    }
  }
  if (!gated) {
    for (int line = 0; line < 2; ++line) {
      const double df = df_star + static_cast<double>(line);
      for (int i = -2; i <= 2; ++i) {
        const double dt = static_cast<double>(i) / 2.0;
        const double v = q(dt, df, /*gate=*/false);
        if (v > best_q2) {
          best_q2 = v;
          dt_hat = dt;
          df_hat = df;
        }
      }
    }
  }

  // Phase 3: OSF + 1 points along dt around dt_hat on the chosen line.
  double best_q3 = best_q2, dt_fin = dt_hat;
  for (unsigned i = 0; i <= p.osf; ++i) {
    const double dt =
        dt_hat - 0.5 + static_cast<double>(i) / static_cast<double>(p.osf);
    const double v = q(dt, df_hat, gated);
    if (v > best_q3) {
      best_q3 = v;
      dt_fin = dt;
    }
  }

  ReferenceRefine r;
  r.dt = dt_fin;
  r.df = df_hat;
  r.q = best_q3;
  r.gated = gated;
  return r;
}

}  // namespace tnb::testing
