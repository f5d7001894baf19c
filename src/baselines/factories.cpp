#include "baselines/factories.hpp"

#include <iterator>
#include <stdexcept>

#include "baselines/aligntrack.hpp"
#include "baselines/argmax_assigner.hpp"
#include "baselines/cic.hpp"
#include "baselines/cora.hpp"
#include "baselines/hybrid.hpp"
#include "baselines/lzn_sync.hpp"

namespace tnb::base {
namespace {

template <class T>
std::unique_ptr<rx::PeakAssigner> assigner(const lora::Params& p) {
  return std::make_unique<T>(p);
}

template <class T>
std::unique_ptr<rx::FrameSync> front_end(const lora::Params& p) {
  return std::make_unique<T>(p);
}

struct SchemeRow {
  const char* name;  ///< as in the paper's figures
  bool use_bec;
  bool two_pass;
  bool use_history;           ///< ThriveOptions::use_history
  rx::AssignerCtor assigner;  ///< nullptr: the receiver's default, Thrive
  rx::SyncCtor sync;          ///< nullptr: the built-in Detector + FracSync
};

// One row per Scheme, in enum order: the row index is the enum value, and
// the benches seed each scheme's Rng from it.
// clang-format off
constexpr SchemeRow kSchemes[] = {
    // name           bec    2-pass history assigner                   sync
    {"TnB",           true,  true,  true,  nullptr,                   nullptr},
    {"Thrive",        false, true,  true,  nullptr,                   nullptr},
    {"Sibling",       false, true,  false, nullptr,                   nullptr},
    {"LoRaPHY",       false, false, true,  assigner<ArgmaxAssigner>,  nullptr},
    {"CIC",           false, true,  true,  assigner<CicAssigner>,     nullptr},
    {"CIC+",          true,  true,  true,  assigner<CicAssigner>,     nullptr},
    {"AlignTrack*",   false, true,  true,  assigner<AlignTrackStar>,  nullptr},
    {"AlignTrack*+",  true,  true,  true,  assigner<AlignTrackStar>,  nullptr},
    {"CoRa",          false, true,  true,  assigner<CoRaDetector>,    nullptr},
    {"CoRa+",         true,  true,  true,  assigner<CoRaDetector>,    nullptr},
    {"LZn-Thrive",    false, true,  true,  nullptr, front_end<LZnSync>},
    {"CoRa-TnB",      true,  true,  true,  assigner<HybridAssigner>,  nullptr},
};
// clang-format on
static_assert(std::size(kSchemes) ==
              static_cast<std::size_t>(Scheme::kCoRaTnB) + 1);

const SchemeRow& row(Scheme s) {
  const auto i = static_cast<std::size_t>(s);
  if (i >= std::size(kSchemes)) {
    throw std::invalid_argument("base: unknown scheme");
  }
  return kSchemes[i];
}

}  // namespace

std::string scheme_name(Scheme s) { return row(s).name; }

std::string scheme_cli_name(Scheme s) {
  std::string token;
  for (char c : scheme_name(s)) {
    if (c == '*') continue;  // "AlignTrack*" -> "aligntrack"
    token.push_back(
        c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  }
  return token;
}

std::optional<Scheme> parse_scheme(const std::string& token) {
  for (Scheme s : all_schemes()) {
    if (scheme_cli_name(s) == token) return s;
  }
  return std::nullopt;
}

std::string scheme_cli_list() {
  std::string list;
  for (Scheme s : all_schemes()) {
    if (!list.empty()) list += ", ";
    list += scheme_cli_name(s);
  }
  return list;
}

std::vector<Scheme> all_schemes() {
  std::vector<Scheme> out;
  for (std::size_t i = 0; i < std::size(kSchemes); ++i) {
    out.push_back(static_cast<Scheme>(i));
  }
  return out;
}

rx::Receiver make_receiver(Scheme s, const lora::Params& p,
                           std::optional<rx::ImplicitHeader> implicit,
                           lora::Coding coding) {
  const SchemeRow& r = row(s);
  rx::ReceiverOptions opt;
  opt.use_bec = r.use_bec;
  opt.two_pass = r.two_pass;
  opt.thrive.use_history = r.use_history;
  opt.assigner = r.assigner;
  opt.sync = r.sync;
  opt.implicit_header = implicit;
  opt.coding = coding;
  return rx::Receiver(p, opt);
}

}  // namespace tnb::base
