// Fuzz harness: the tools' command-line parser (tools/cli).
//
// argv is the fuzz input split at NUL bytes. The parser below declares
// every reader kind and every shared flag tnb_gen, tnb_eval and
// tnb_streamd use. Each input is either rejected with a "fuzz: ..."
// message or accepted with every stored value inside its declared range;
// parsing never throws or aborts.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "testing/oracles.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace tnb;
  std::vector<std::string> args(1);
  for (std::size_t i = 0; i < size; ++i) {
    if (data[i] == 0) {
      args.emplace_back();
    } else {
      args.back().push_back(static_cast<char>(data[i]));
    }
  }

  // No argument can hold a NUL, so an accepted parse must replace this.
  const std::string unset("\0unset", 6);
  lora::Params params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  lora::Coding coding = lora::Coding::kPaper;
  std::uint8_t implicit_len = 0;
  std::vector<impair::ImpairmentConfig> stages;
  std::uint64_t seed = 1;
  std::string text = unset, pick = "a";
  unsigned n = 1;
  int lanes = 0, jobs = 1;
  double x = 0.5;
  bool on = false;
  std::vector<unsigned> sfs;
  const cli::Parser parser(
      "fuzz",
      {cli::sf(params), cli::cr(params), cli::bw(params), cli::osf(params),
       cli::wire_format(coding), cli::implicit_len(implicit_len),
       cli::impair(stages), cli::impair_seed(seed), cli::fft_backend(),
       cli::jobs(jobs), {"--text S", cli::text(text), true},
       cli::one_of("--pick NAME", pick, "a, bb"),
       {"--n N", cli::number(n, 1u, 64u)},
       {"--lanes J", cli::number(lanes, 0, 1024)},
       {"--x X", cli::number(x, 0.0, 1.0)},
       {"--on", cli::set(on)},
       {"--sfs LIST", cli::numbers(sfs, 5, 12)}});

  const cli::Parsed r = parser.parse(args);
  if (r.help) {
    TNB_ORACLE(r.error.empty(), "--help with an error");
    TNB_ORACLE(parser.usage().find(" --text S ") != std::string::npos,
               "usage lacks the required flag");
    return 0;
  }
  if (!r.error.empty()) {
    TNB_ORACLE(r.error.rfind("fuzz: ", 0) == 0 && r.error.size() > 6,
               "rejection without a message: " + r.error);
    return 0;
  }
  try {
    params.validate();
  } catch (const std::invalid_argument& e) {
    TNB_ORACLE(false, std::string("accepted invalid params: ") + e.what());
  }
  TNB_ORACLE(std::isfinite(params.bandwidth_hz), "non-finite bandwidth");
  TNB_ORACLE(text != unset, "required flag missing from an accepted parse");
  TNB_ORACLE(pick == "a" || pick == "bb", "one_of stored '" + pick + "'");
  TNB_ORACLE(n >= 1 && n <= 64, "integer out of range");
  TNB_ORACLE(lanes >= 0 && lanes <= 1024, "signed integer out of range");
  TNB_ORACLE(jobs >= 1 && jobs <= 1024, "--jobs out of range");
  TNB_ORACLE(x >= 0.0 && x <= 1.0, "real out of range");
  for (unsigned sf : sfs) TNB_ORACLE(sf >= 5 && sf <= 12, "list item range");
  TNB_ORACLE(stages.size() < args.size(), "more stages than arguments");
  return 0;
}
