#include "baselines/factories.hpp"

#include <stdexcept>

#include "baselines/aligntrack.hpp"
#include "baselines/argmax_assigner.hpp"
#include "baselines/cic.hpp"
#include "baselines/cora.hpp"
#include "baselines/hybrid.hpp"
#include "baselines/lzn_sync.hpp"

namespace tnb::base {

std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kTnB: return "TnB";
    case Scheme::kThrive: return "Thrive";
    case Scheme::kSibling: return "Sibling";
    case Scheme::kLoRaPhy: return "LoRaPHY";
    case Scheme::kCic: return "CIC";
    case Scheme::kCicBec: return "CIC+";
    case Scheme::kAlignTrack: return "AlignTrack*";
    case Scheme::kAlignTrackBec: return "AlignTrack*+";
    case Scheme::kCoRa: return "CoRa";
    case Scheme::kCoRaBec: return "CoRa+";
    case Scheme::kLZnThrive: return "LZn-Thrive";
    case Scheme::kCoRaTnB: return "CoRa-TnB";
  }
  throw std::invalid_argument("scheme_name: unknown scheme");
}

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

bool scheme_uses_custom_sync(Scheme s) {
  return s == Scheme::kLZnThrive;
}

std::vector<Scheme> all_schemes() {
  return {Scheme::kTnB,        Scheme::kThrive,
          Scheme::kSibling,    Scheme::kLoRaPhy,
          Scheme::kCic,        Scheme::kCicBec,
          Scheme::kAlignTrack, Scheme::kAlignTrackBec,
          Scheme::kCoRa,       Scheme::kCoRaBec,
          Scheme::kLZnThrive,  Scheme::kCoRaTnB};
}

rx::Receiver make_receiver(Scheme s, const lora::Params& p,
                           std::optional<rx::ImplicitHeader> implicit,
                           lora::Coding coding) {
  rx::ReceiverOptions opt;
  opt.implicit_header = implicit;
  opt.coding = coding;
  switch (s) {
    case Scheme::kTnB:
      break;  // defaults: Thrive + history + BEC + two passes
    case Scheme::kThrive:
      opt.use_bec = false;
      break;
    case Scheme::kSibling:
      opt.use_bec = false;
      opt.use_history = false;
      break;
    case Scheme::kLoRaPhy:
      opt.use_bec = false;
      opt.two_pass = false;
      break;
    case Scheme::kCic:
      opt.use_bec = false;
      break;
    case Scheme::kCicBec:
      break;
    case Scheme::kAlignTrack:
      opt.use_bec = false;
      break;
    case Scheme::kAlignTrackBec:
      break;
    case Scheme::kCoRa:
      opt.use_bec = false;
      break;
    case Scheme::kCoRaBec:
      break;
    case Scheme::kLZnThrive:
      opt.use_bec = false;
      break;
    case Scheme::kCoRaTnB:
      break;  // BEC + two passes, like TnB
  }
  rx::Receiver receiver(p, opt);
  switch (s) {
    case Scheme::kLoRaPhy:
      receiver.set_assigner_factory(
          [p]() { return std::make_unique<ArgmaxAssigner>(p); });
      break;
    case Scheme::kCic:
    case Scheme::kCicBec:
      receiver.set_assigner_factory(
          [p]() { return std::make_unique<CicAssigner>(p); });
      break;
    case Scheme::kAlignTrack:
    case Scheme::kAlignTrackBec:
      receiver.set_assigner_factory(
          [p]() { return std::make_unique<AlignTrackStar>(p); });
      break;
    case Scheme::kCoRa:
    case Scheme::kCoRaBec:
      receiver.set_assigner_factory(
          [p]() { return std::make_unique<CoRaDetector>(p); });
      break;
    case Scheme::kCoRaTnB:
      receiver.set_assigner_factory(
          [p]() { return std::make_unique<HybridAssigner>(p); });
      break;
    default:
      break;  // Thrive family uses the receiver's default factory
  }
  if (scheme_uses_custom_sync(s)) {
    receiver.set_sync_factory(
        [p]() { return std::make_unique<LZnSync>(p); });
  }
  return receiver;
}

}  // namespace tnb::base
