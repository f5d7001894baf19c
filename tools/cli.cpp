#include "cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "dsp/fft_backend.hpp"

namespace tnb::cli {
namespace {

std::string flag_of(const Flag& f) {
  return f.name.substr(0, f.name.find(' '));
}

/// Stores a value into a copy of `p` with `set`, and keeps the copy once
/// lora::Params::validate accepts it.
Flag phy(std::string name, lora::Params& p,
         bool (*set)(lora::Params&, std::string_view)) {
  Reader read = [&p, set](std::string_view v) -> std::string {
    lora::Params q = p;
    if (!set(q, v)) return "expected a number, got '" + std::string(v) + "'";
    try {
      q.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    p = q;
    return {};
  };
  return {std::move(name), std::move(read)};
}

std::string unknown(const std::string& noun, std::string_view v,
                    const std::string& valid) {
  return "unknown " + noun + " '" + std::string(v) + "' (valid: " + valid +
         ")";
}

}  // namespace

Parsed Parser::parse(const std::vector<std::string>& args) const {
  const auto fail = [&](const std::string& why) {
    return Parsed{.help = false, .error = tool_ + ": " + why};
  };
  std::vector<bool> seen(flags_.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help") return {.help = true, .error = {}};
    std::size_t k = 0;
    while (k < flags_.size() && flag_of(flags_[k]) != flag) ++k;
    if (k == flags_.size()) {
      return fail("unknown argument '" + flag + "' (see --help)");
    }
    const bool takes_value = flags_[k].name != flag;
    if (takes_value && ++i == args.size()) return fail(flag + ": no value");
    const std::string why = flags_[k].read(takes_value ? args[i] : "");
    if (!why.empty()) return fail(flag + ": " + why);
    seen[k] = true;
  }
  for (std::size_t k = 0; k < flags_.size(); ++k) {
    if (flags_[k].required && !seen[k]) {
      return fail(flags_[k].name + " is required");
    }
  }
  return {};
}

std::string Parser::usage() const {
  std::string out = "usage: " + tool_, line = out, notes;
  for (const Flag& f : flags_) {
    const std::string item = f.required ? f.name : "[" + f.name + "]";
    if (line.size() + item.size() >= 79) {
      out += "\n" + std::string(tool_.size() + 7, ' ');
      line = std::string(tool_.size() + 6, ' ');
    }
    out += " " + item;
    line += " " + item;
    if (!f.note.empty()) notes += f.note + "\n";
  }
  return out + "\n" + notes;
}

std::optional<int> Parser::run(int argc, char** argv) const {
  const Parsed p = parse(std::vector<std::string>(argv + 1, argv + argc));
  if (p.help) {
    std::fputs(usage().c_str(), stdout);
    return 0;
  }
  if (p.error.empty()) return std::nullopt;
  std::fprintf(stderr, "%s\n", p.error.c_str());
  return 2;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> pieces;
  for (std::size_t pos = 0;; ++pos) {
    const std::size_t end = std::min(s.find(sep, pos), s.size());
    pieces.push_back(s.substr(pos, end - pos));
    if (end == s.size()) return pieces;
    pos = end;
  }
}

Reader numbers(std::vector<unsigned>& dst, unsigned lo, unsigned hi) {
  return [&dst, lo, hi](std::string_view v) -> std::string {
    std::vector<unsigned> items;
    for (std::string_view item : split(v, ',')) {
      const std::string why = number(items.emplace_back(), lo, hi)(item);
      if (!why.empty()) return why;
    }
    dst.insert(dst.end(), items.begin(), items.end());
    return {};
  };
}

Reader text(std::string& dst) {
  return [&dst](std::string_view v) -> std::string {
    if (v.empty()) return "expected a non-empty value";
    dst = v;
    return {};
  };
}

Reader set(bool& dst) {
  return [&dst](std::string_view) {
    dst = true;
    return std::string();
  };
}

Flag one_of(std::string name, std::string& dst, std::string valid) {
  const std::string noun = name.substr(2, name.find(' ') - 2);
  Reader read = [&dst, noun, valid](std::string_view v) {
    for (std::string_view n : split(valid, ',')) {
      while (!n.empty() && n.front() == ' ') n.remove_prefix(1);
      if (n == v) {
        dst = v;
        return std::string();
      }
    }
    return unknown(noun, v, valid);
  };
  return {std::move(name), std::move(read), false, "--" + noun + ": " + valid};
}

Flag sf(lora::Params& p) {
  return phy("--sf N", p, [](auto& q, auto v) { return to_number(v, q.sf); });
}

Flag cr(lora::Params& p) {
  return phy("--cr N", p, [](auto& q, auto v) { return to_number(v, q.cr); });
}

Flag osf(lora::Params& p) {
  return phy("--osf N", p,
             [](auto& q, auto v) { return to_number(v, q.osf); });
}

Flag bw(lora::Params& p) {
  return phy("--bw KHZ", p, [](lora::Params& q, std::string_view v) {
    double khz = 0.0;
    if (!to_number(v, khz)) return false;
    q.bandwidth_hz = khz * 1e3;
    return std::isfinite(q.bandwidth_hz);
  });
}

Flag wire_format(lora::Coding& coding) {
  return {"--wire-format", [&coding](std::string_view) {
            coding = lora::Coding::kWire;
            return std::string();
          }};
}

Flag impair(std::vector<impair::ImpairmentConfig>& stages) {
  Reader read = [&stages](std::string_view v) -> std::string {
    try {
      stages.push_back(impair::parse_impairment(std::string(v)));
    } catch (const std::exception& e) {
      return e.what();
    }
    return {};
  };
  return {"--impair SPEC", std::move(read), false,
          "--impair, repeatable: " + impair::impairment_cli_help()};
}

Flag impair_seed(std::uint64_t& seed) {
  return {"--impair-seed N", number<std::uint64_t>(seed, 0, UINT64_MAX)};
}

Flag implicit_len(std::uint8_t& len) {
  return {"--implicit-len BYTES", number<std::uint8_t>(len, 1, 255)};
}

Flag fft_backend() {
  const std::string valid = dsp::fft_backend_names();
  Reader read = [valid](std::string_view v) {
    return dsp::set_fft_backend(v) ? std::string()
                                   : unknown("fft backend", v, valid);
  };
  return {"--fft-backend NAME", std::move(read), false,
          "--fft-backend: " + valid +
              " (default: TNB_FFT_BACKEND env var, else scalar)"};
}

Flag jobs(int& n) { return {"--jobs N", number(n, 1, 1024)}; }

}  // namespace tnb::cli
