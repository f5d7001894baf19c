// Generic 3GPP tapped-delay-line fading channels (TS 36.101 Annex B.2).
//
// ETU with a 5 Hz Doppler is the channel the paper evaluates (Section 8.5,
// bench_fig19_etu); EPA and EVA — the pedestrian and vehicular siblings —
// are provided for sensitivity studies beyond the paper (bench_channels
// compares all three).
#pragma once

#include <vector>

#include "channel/fading.hpp"

namespace tnb::chan {

/// One multipath profile: excess delays and relative tap powers.
struct TdlProfile {
  const char* name = "";
  std::vector<double> delays_s;
  std::vector<double> powers_db;
};

TdlProfile epa_profile();  ///< Extended Pedestrian A (delay spread 43 ns)
TdlProfile eva_profile();  ///< Extended Vehicular A (delay spread 357 ns)
TdlProfile etu_profile();  ///< Extended Typical Urban (delay spread 991 ns)

/// Tapped-delay-line Rayleigh channel over an arbitrary profile, with
/// Jakes Doppler. The paper's channel is TdlChannel(etu_profile(), 5).
class TdlChannel final : public Channel {
 public:
  TdlChannel(TdlProfile profile, double doppler_hz,
             unsigned n_oscillators = 16);

  const TdlProfile& profile() const { return profile_; }

  void apply(IqBuffer& iq, double sample_rate_hz, Rng& rng) const override;

 private:
  TdlProfile profile_;
  double doppler_hz_;
  unsigned n_oscillators_;
};

}  // namespace tnb::chan
