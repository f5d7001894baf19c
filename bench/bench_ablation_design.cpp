// Ablations of TnB's design choices beyond the paper's Fig. 15:
//  * omega, the history-cost weight (paper fixes 0.1);
//  * the W CRC budget at CR 1 (paper 6.9: W=25 loses <5% vs W=125);
//  * the second decoding pass;
//  * the fractional synchronization stage.
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "core/frame_codec.hpp"
#include "lora/coding.hpp"

using namespace tnb;

namespace {

std::size_t decode_count(const lora::Params& p, const sim::Trace& trace,
                         const rx::ReceiverOptions& opt) {
  rx::Receiver receiver(p, opt);
  Rng rng(1);
  const auto decoded = receiver.decode(trace.iq, rng);
  return sim::evaluate(trace, decoded).decoded_unique;
}

}  // namespace

int main() {
  bench::print_header("Design ablations: omega, W budget, second pass, "
                      "fractional sync",
                      "paper 5.3.3, 6.9, Section 4");
  lora::Params p{.sf = 10, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  const sim::Trace trace = bench::make_deployment_trace(
      p, sim::outdoor1_deployment(), bench::load_sweep().back(), 2100);
  std::printf("(SF 10, Outdoor 1, %zu tx packets)\n\n", trace.packets.size());

  std::printf("omega (history-cost weight):\n");
  for (double omega : {0.0, 0.05, 0.1, 0.3, 1.0}) {
    rx::ReceiverOptions opt;
    opt.thrive.omega = omega;
    std::printf("  omega=%-5.2f decoded=%zu%s\n", omega,
                decode_count(p, trace, opt),
                omega == 0.1 ? "   <- paper value" : "");
  }

  std::printf("\nsecond pass / fractional sync:\n");
  {
    rx::ReceiverOptions opt;
    std::printf("  full TnB             decoded=%zu\n", decode_count(p, trace, opt));
    opt.two_pass = false;
    std::printf("  without second pass  decoded=%zu\n", decode_count(p, trace, opt));
    opt.two_pass = true;
    opt.use_frac_sync = false;
    std::printf("  without frac sync    decoded=%zu\n", decode_count(p, trace, opt));
  }

  // W budget at CR 1: corrupt two blocks of many packets and count how the
  // CRC budget changes the packet decode rate (paper 6.9).
  std::printf("\nW budget at CR 1 (packet decode rate, 2 corrupted blocks):\n");
  lora::Params p1{.sf = 8, .cr = 1, .bandwidth_hz = 125e3, .osf = 8};
  const rx::FrameCodec codec(
      {p1, /*use_bec=*/true, rx::ImplicitHeader{16, 1}, lora::Coding::kPaper});
  const lora::Header h = *codec.implicit_header();
  const lora::CodingTable& paper = lora::coding_table(lora::Coding::kPaper);
  const int trials = bench::full_mode() ? 2000 : 500;
  for (std::size_t w : {5ul, 25ul, 125ul}) {
    Rng rng(3);
    int ok = 0;
    for (int t = 0; t < trials; ++t) {
      std::vector<std::uint8_t> app(14);
      for (auto& b : app) b = static_cast<std::uint8_t>(rng.uniform_index(256));
      auto symbols = codec.encode_shifts(app);
      const std::size_t cols = p1.codeword_len();
      const std::size_t n_blocks = symbols.size() / cols;
      std::set<std::size_t> blocks;
      while (blocks.size() < 2) blocks.insert(rng.uniform_index(n_blocks));
      for (std::size_t blk : blocks) {
        // XOR the symbol value, as seen after the bin -> value map.
        std::uint32_t& shift = symbols[blk * cols + rng.uniform_index(cols)];
        const std::uint32_t v =
            lora::value_for_bin(paper, p1.sf, shift, false) ^
            static_cast<std::uint32_t>(1 + rng.uniform_index((1u << p1.sf) - 1));
        shift = lora::shift_for_value(paper, p1.sf, v, false);
      }
      const auto r = codec.decode_frame(symbols, h, rng, nullptr, w);
      if (r.ok) ++ok;
    }
    std::printf("  W=%-4zu rate=%.3f%s\n", w,
                static_cast<double>(ok) / trials,
                w == 125 ? "   <- paper value (W=25 claimed within 5%)" : "");
  }
  return 0;
}
