// Fig. 1(b)(c): sensitivity of the demodulated peak height to symbol-
// boundary misalignment and to residual CFO.
#include <cstdio>

#include "bench_util.hpp"
#include "lora/chirp.hpp"
#include "lora/demodulator.hpp"

using namespace tnb;

int main() {
  bench::print_header("Fig. 1: peak height vs timing error and CFO",
                      "paper Fig. 1(b)(c)");
  lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  const lora::Demodulator demod(p);
  lora::Workspace ws(p);
  SignalVector sv;
  const std::uint32_t shift = 64;

  // A symbol followed by a *different* symbol, so a late window loses the
  // first symbol's energy to the neighbour (paper Fig. 1(b)).
  const auto sym = lora::make_upchirp(p, shift);
  const auto next = lora::make_upchirp(p, 200);
  std::vector<cfloat> twosym(sym.begin(), sym.end());
  twosym.insert(twosym.end(), next.begin(), next.end());

  std::printf("timing_error_frac  rel_peak_height (at the symbol's bin)\n");
  double h0 = 0.0;
  for (int i = 0; i <= 10; ++i) {
    const double frac = i / 10.0 * 0.5;  // up to half a symbol
    const std::size_t off = static_cast<std::size_t>(frac * p.sps());
    demod.signal_vector_into(
        std::span<const cfloat>(twosym).subspan(off, p.sps()), 0.0,
        /*up=*/true, ws, sv);
    // Track the first symbol's (shifting) peak rather than the global max.
    const std::size_t want =
        (shift + static_cast<std::size_t>(frac * static_cast<double>(p.n_bins()))) %
        p.n_bins();
    float peak = 0.0f;
    for (int d = -1; d <= 1; ++d) {
      const std::size_t b = (want + p.n_bins() + static_cast<std::size_t>(d + static_cast<int>(p.n_bins()))) % p.n_bins();
      peak = std::max(peak, sv[b]);
    }
    if (i == 0) h0 = peak;
    std::printf("%8.2f %18.3f\n", frac, peak / h0);
  }

  std::printf("\ncfo_cycles  rel_peak_height\n");
  for (int i = 0; i <= 10; ++i) {
    const double cfo = i / 10.0;  // 0..1 cycles per symbol
    demod.signal_vector_into(sym, cfo, /*up=*/true, ws, sv);
    // Peak splits between adjacent bins as the CFO grows.
    const float peak = *std::max_element(sv.begin(), sv.end());
    std::printf("%8.2f %18.3f\n", cfo, peak / h0);
  }
  std::printf("\n(paper: ~0.5 cycles of CFO or a quarter-symbol timing error "
              "visibly lower the peak)\n");
  return 0;
}
