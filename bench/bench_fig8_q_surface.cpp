// Fig. 8: the Q(dt, df) objective of the fractional synchronizer for one
// packet, plus the gated Q* along the phase-2 lines.
#include <cstdio>

#include "bench_util.hpp"
#include "channel/awgn.hpp"
#include "core/frac_sync.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"

using namespace tnb;

int main() {
  bench::print_header("Fig. 8: Q() and Q*() of a packet", "paper Fig. 8");
  lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};

  // A packet with known fractional timing (0.3 samples) and CFO (+0.37
  // cycles beyond the coarse estimate), lightly noisy.
  const double true_dt = 0.3, true_df = 0.37;
  Rng rng(5);
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(14, 0x5A);
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  lora::WaveformOptions wopt;
  wopt.frac_delay = true_dt;
  wopt.cfo_hz = p.cfo_cycles_to_hz(true_df);
  const IqBuffer pkt = mod.synthesize_shifts(symbols, wopt);
  IqBuffer trace(pkt.size() + 8 * p.sps(), cfloat{0.0f, 0.0f});
  const std::size_t t0 = 2 * p.sps();
  for (std::size_t i = 0; i < pkt.size(); ++i) trace[t0 + i] += pkt[i];
  chan::add_awgn(trace, 0.5, rng);

  const rx::FracSync fs(p);
  lora::Workspace ws(p);

  std::printf("Q(dt, df) surface (rows: dt in receiver samples; cols: df in "
              "cycles):\n%8s", "");
  const int df_steps = bench::full_mode() ? 16 : 8;
  for (int j = 0; j <= df_steps; ++j) {
    std::printf("%8.2f", -1.0 + 2.0 * j / df_steps);
  }
  std::printf("\n");
  for (int i = -2; i <= 2; ++i) {
    const double dt = i / 2.0;
    std::printf("%8.2f", dt);
    for (int j = 0; j <= df_steps; ++j) {
      const double df = -1.0 + 2.0 * j / df_steps;
      const double q = fs.q(trace, static_cast<double>(t0), 0.0, dt, df, false, ws);
      std::printf("%8.0f", q / 1e3);
    }
    std::printf("\n");
  }

  std::printf("\nQ*(0, df) along the df line (zero where the peaks leave "
              "location 1):\n");
  for (int j = 0; j <= df_steps; ++j) {
    const double df = -1.0 + 2.0 * j / df_steps;
    std::printf("  df=%6.2f  Q*=%-12.0f Q=%.0f\n", df,
                fs.q(trace, static_cast<double>(t0), 0.0, 0.0, df, true, ws),
                fs.q(trace, static_cast<double>(t0), 0.0, 0.0, df, false, ws));
  }

  const rx::FracSyncResult r = fs.refine(trace, static_cast<double>(t0), 0.0, ws);
  std::printf("\n3-phase search found dt=%.3f (true %.1f), df=%.3f (true "
              "%.2f), gated=%d\n",
              r.dt, true_dt, r.df, true_df, r.gated ? 1 : 0);
  return 0;
}
