// Table 2: BEC repair complexity — which repair method runs how many times
// and how many packet-level CRC checks are spent, per CR and number of
// error columns.
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "core/bec.hpp"
#include "lora/coding.hpp"

using namespace tnb;

int main() {
  bench::print_header("Table 2: Summary of BEC (repair method counts)",
                      "paper Table 2");
  const unsigned sf = 8;
  const int trials = bench::full_mode() ? 5000 : 1000;
  Rng rng(2);

  std::printf("%-4s %-10s %-8s %-8s %-8s %-8s %-10s\n", "CR", "#errcols",
              "D'", "D1", "D2", "D3", "cands");
  struct Row {
    unsigned cr, ncols;
    const char* paper;
  };
  const Row rows[] = {
      {1, 1, "5 D',  5 CRC"},   {2, 1, "2 D1,  2 CRC"},
      {3, 2, "3 D1,  3 CRC"},   {4, 2, "<=4 D3, <=4 CRC"},
      {4, 3, "<=9 D1, 4 CRC"},
  };
  for (const Row& row : rows) {
    rx::BecStats total;
    const rx::Bec bec(sf, row.cr);
    for (int t = 0; t < trials; ++t) {
      std::vector<std::uint8_t> truth(sf);
      for (auto& r : truth) r = lora::codebook(row.cr)[rng.uniform_index(16)];
      std::set<unsigned> cols;
      while (cols.size() < row.ncols) {
        cols.insert(static_cast<unsigned>(rng.uniform_index(4 + row.cr)));
      }
      std::vector<std::uint8_t> received = truth;
      for (unsigned c : cols) {
        bool any = false;
        while (!any) {
          for (std::size_t r = 0; r < received.size(); ++r) {
            received[r] = static_cast<std::uint8_t>(received[r] & ~(1u << c));
            const unsigned orig = (truth[r] >> c) & 1u;
            const unsigned bit = rng.uniform() < 0.5 ? orig ^ 1u : orig;
            received[r] |= static_cast<std::uint8_t>(bit << c);
            if (bit != orig) any = true;
          }
        }
      }
      bec.decode_block(received, &total);
    }
    const double n = static_cast<double>(trials);
    std::printf("%-4u %-10u %-8.2f %-8.2f %-8.2f %-8.2f %-10.2f  (paper: %s)\n",
                row.cr, row.ncols, total.delta_prime / n, total.delta1 / n,
                total.delta2 / n, total.delta3 / n,
                total.candidate_blocks / n, row.paper);
  }
  std::printf("\n(mean per corrupted block over %d trials at SF %u; 'cands' "
              "bounds the per-block CRC checks)\n",
              trials, sf);
  return 0;
}
