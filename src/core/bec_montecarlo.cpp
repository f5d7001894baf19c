#include "core/bec_montecarlo.hpp"

#include <set>
#include <vector>

#include "core/bec.hpp"
#include "lora/coding.hpp"

namespace tnb::rx {

BecMcResult bec_capability_mc(unsigned sf, unsigned cr, unsigned n_err_cols,
                              int trials, Rng& rng) {
  const Bec bec(sf, cr);
  BecMcResult result;
  result.trials = trials;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint8_t> truth(sf);
    for (auto& r : truth) r = lora::codebook(cr)[rng.uniform_index(16)];

    std::set<unsigned> cols;
    while (cols.size() < n_err_cols) {
      cols.insert(static_cast<unsigned>(rng.uniform_index(4 + cr)));
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

    bool def_ok = true;
    for (unsigned r = 0; r < sf; ++r) {
      if (lora::nearest_codeword(received[r], lora::codebook(cr)).codeword != truth[r]) {
        def_ok = false;
        break;
      }
    }
    if (def_ok) ++result.ok_default;

    for (const auto& cand : bec.decode_block(received)) {
      if (cand == truth) {
        ++result.ok_bec;
        break;
      }
    }
  }
  return result;
}

}  // namespace tnb::rx
