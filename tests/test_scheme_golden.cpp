// Golden outputs of every registered scheme, and of SicDecoder.
//
// base::make_receiver assembles each scheme from a peak assigner, a sync
// front end and the use_bec / two_pass / use_history switches; SicDecoder
// runs its own cancellation rounds on top of a receiver. This test pins
// what each of them decodes, so a refactor of the scheme registry or of
// the receiver's extension points must reproduce it bit for bit.
//
// One fixed SF8 indoor collision trace per configuration (paper explicit,
// wire explicit, paper implicit with a 16-byte payload), decoded on the
// scalar backend. Per scheme and configuration: the decoded count, an
// FNV-1a digest of the decoded packets (payload bytes and the bit patterns
// of start_sample, snr_db and cfo_hz, in start order) and
// ReceiverStats::to_json(). SicDecoder is pinned on the paper trace. The
// values were captured from the switch-based registry, before the scheme
// table replaced it. The traces are synthesized with libm, so another libm
// can shift them; a failing case prints the captured listing in the
// table's format.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baselines/factories.hpp"
#include "baselines/sic.hpp"
#include "common/rng.hpp"
#include "dsp/fft_backend.hpp"
#include "sim/deployment.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::base {
namespace {

constexpr lora::Params kParams{.sf = 8, .cr = 4, .bandwidth_hz = 125e3,
                               .osf = 8};
constexpr std::uint8_t kImplicitLen = 16;  // 14 app bytes + CRC16

struct Config {
  const char* name;
  lora::Coding coding;
  bool implicit;
};

constexpr Config kConfigs[] = {
    {"paper", lora::Coding::kPaper, false},
    {"wire", lora::Coding::kWire, false},
    {"implicit", lora::Coding::kPaper, true},
};

/// The trace tnb_gen writes for `--load 16 --duration 0.6 --seed 5` plus
/// the configuration's format flags.
sim::Trace build(const Config& c) {
  Rng rng(5);
  sim::TraceOptions opt;
  opt.duration_s = 0.6;
  opt.load_pps = 16.0;
  opt.nodes = sim::indoor_deployment().draw_nodes(rng);
  opt.implicit_header = c.implicit;
  opt.coding = c.coding;
  return sim::build_trace(kParams, opt, rng);
}

void fnv1a(std::uint64_t& h, std::uint8_t byte) {
  h ^= byte;
  h *= 0x100000001b3ull;
}

void fnv1a(std::uint64_t& h, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 64; i += 8) {
    fnv1a(h, static_cast<std::uint8_t>(bits >> i));
  }
}

/// "count digest" of a decode, packets taken in start order.
std::string summarize(std::vector<sim::DecodedPacket> pkts) {
  std::stable_sort(pkts.begin(), pkts.end(), [](const auto& a, const auto& b) {
    return a.start_sample < b.start_sample;
  });
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const sim::DecodedPacket& p : pkts) {
    fnv1a(h, static_cast<std::uint8_t>(p.payload.size()));
    for (std::uint8_t b : p.payload) fnv1a(h, b);
    fnv1a(h, p.start_sample);
    fnv1a(h, p.snr_db);
    fnv1a(h, p.cfo_hz);
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%zu %016llx", pkts.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

/// Restores the process-global backend active when the test started.
struct BackendGuard {
  const char* prev = dsp::active_fft_backend().name();
  ~BackendGuard() { dsp::set_fft_backend(prev); }
};

// "<config> <scheme> <count> <digest> <ReceiverStats json>"; the SIC line
// has no stats.
// clang-format off
const char* const kGolden[] = {
    R"(paper TnB 10 e01da46f9df29f0c {"detected":10,"header_ok":10,"crc_ok":10,"decoded_first_pass":9,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":10,"delta2":2,"delta3":0,"crc_checks":18,"blocks_no_repair":1,"candidate_blocks":7},"rescued_packets":10,"rescued_codewords":4})",
    R"(paper Thrive 8 82ad5885e60a8894 {"detected":10,"header_ok":10,"crc_ok":8,"decoded_first_pass":8,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":8,"rescued_codewords":0})",
    R"(paper Sibling 8 82ad5885e60a8894 {"detected":10,"header_ok":9,"crc_ok":8,"decoded_first_pass":7,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":8,"rescued_codewords":0})",
    R"(paper LoRaPHY 3 58fe4de5def38ab0 {"detected":10,"header_ok":5,"crc_ok":3,"decoded_first_pass":3,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":3,"rescued_codewords":0})",
    R"(paper CIC 9 473ef9ac63811ea9 {"detected":10,"header_ok":10,"crc_ok":9,"decoded_first_pass":4,"decoded_second_pass":5,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":9,"rescued_codewords":0})",
    R"(paper CIC+ 9 473ef9ac63811ea9 {"detected":10,"header_ok":10,"crc_ok":9,"decoded_first_pass":6,"decoded_second_pass":3,"bec":{"delta_prime":0,"delta1":240,"delta2":3,"delta3":0,"crc_checks":41,"blocks_no_repair":51,"candidate_blocks":26},"rescued_packets":9,"rescued_codewords":5})",
    R"(paper AlignTrack* 8 82ad5885e60a8894 {"detected":10,"header_ok":9,"crc_ok":8,"decoded_first_pass":6,"decoded_second_pass":2,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":8,"rescued_codewords":0})",
    R"(paper AlignTrack*+ 9 473ef9ac63811ea9 {"detected":10,"header_ok":10,"crc_ok":9,"decoded_first_pass":8,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":14,"delta2":4,"delta3":0,"crc_checks":15,"blocks_no_repair":49,"candidate_blocks":7},"rescued_packets":9,"rescued_codewords":4})",
    R"(paper CoRa 6 cd40eeac04efcaa5 {"detected":10,"header_ok":10,"crc_ok":6,"decoded_first_pass":4,"decoded_second_pass":2,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":6,"rescued_codewords":0})",
    R"(paper CoRa+ 6 cd40eeac04efcaa5 {"detected":10,"header_ok":10,"crc_ok":6,"decoded_first_pass":4,"decoded_second_pass":2,"bec":{"delta_prime":0,"delta1":1558,"delta2":6,"delta3":0,"crc_checks":15,"blocks_no_repair":152,"candidate_blocks":362},"rescued_packets":6,"rescued_codewords":0})",
    R"(paper LZn-Thrive 7 09fa2051cae6c5b8 {"detected":8,"header_ok":8,"crc_ok":7,"decoded_first_pass":6,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":7,"rescued_codewords":0})",
    R"(paper CoRa-TnB 9 473ef9ac63811ea9 {"detected":10,"header_ok":10,"crc_ok":9,"decoded_first_pass":8,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":369,"delta2":2,"delta3":0,"crc_checks":12,"blocks_no_repair":91,"candidate_blocks":4},"rescued_packets":9,"rescued_codewords":1})",
    R"(paper SIC 10 e44d8989cae1da13)",
    R"(wire TnB 9 7e94428b08b38ebb {"detected":10,"header_ok":10,"crc_ok":9,"decoded_first_pass":8,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":8,"delta2":0,"delta3":0,"crc_checks":11,"blocks_no_repair":1,"candidate_blocks":1},"rescued_packets":9,"rescued_codewords":2})",
    R"(wire Thrive 8 209e60e7e1fcf668 {"detected":10,"header_ok":10,"crc_ok":8,"decoded_first_pass":8,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":10,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":8,"rescued_codewords":0})",
    R"(wire Sibling 8 4a1b0f587af4d1e4 {"detected":10,"header_ok":10,"crc_ok":8,"decoded_first_pass":7,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":11,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":8,"rescued_codewords":0})",
    R"(wire LoRaPHY 2 a7e18ed29fba5814 {"detected":10,"header_ok":5,"crc_ok":2,"decoded_first_pass":2,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":4,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":2,"rescued_codewords":0})",
    R"(wire CIC 6 41a1c749f12f4ff2 {"detected":10,"header_ok":8,"crc_ok":6,"decoded_first_pass":4,"decoded_second_pass":2,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":9,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":6,"rescued_codewords":0})",
    R"(wire CIC+ 9 7e94428b08b38ebb {"detected":10,"header_ok":10,"crc_ok":9,"decoded_first_pass":6,"decoded_second_pass":3,"bec":{"delta_prime":0,"delta1":828,"delta2":6,"delta3":0,"crc_checks":31,"blocks_no_repair":138,"candidate_blocks":15},"rescued_packets":9,"rescued_codewords":9})",
    R"(wire AlignTrack* 7 ad6a16f9bb4f7af9 {"detected":10,"header_ok":10,"crc_ok":7,"decoded_first_pass":7,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":11,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":7,"rescued_codewords":0})",
    R"(wire AlignTrack*+ 9 7e94428b08b38ebb {"detected":10,"header_ok":10,"crc_ok":9,"decoded_first_pass":9,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":14,"delta2":2,"delta3":0,"crc_checks":14,"blocks_no_repair":0,"candidate_blocks":9},"rescued_packets":9,"rescued_codewords":13})",
    R"(wire CoRa 4 66ce4dec6e18a404 {"detected":10,"header_ok":9,"crc_ok":4,"decoded_first_pass":3,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":11,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":4,"rescued_codewords":0})",
    R"(wire CoRa+ 5 f8a7055c1371375f {"detected":10,"header_ok":9,"crc_ok":5,"decoded_first_pass":3,"decoded_second_pass":2,"bec":{"delta_prime":0,"delta1":761,"delta2":4,"delta3":0,"crc_checks":34,"blocks_no_repair":277,"candidate_blocks":21},"rescued_packets":5,"rescued_codewords":3})",
    R"(wire LZn-Thrive 8 6cbef5dc345c6a83 {"detected":8,"header_ok":8,"crc_ok":8,"decoded_first_pass":8,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":8,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":8,"rescued_codewords":0})",
    R"(wire CoRa-TnB 9 7e94428b08b38ebb {"detected":10,"header_ok":10,"crc_ok":9,"decoded_first_pass":9,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":2,"delta2":2,"delta3":8,"crc_checks":17,"blocks_no_repair":0,"candidate_blocks":12},"rescued_packets":9,"rescued_codewords":5})",
    R"(implicit TnB 10 7d8cc21cd5f75189 {"detected":11,"header_ok":0,"crc_ok":10,"decoded_first_pass":10,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":29,"delta2":2,"delta3":0,"crc_checks":12,"blocks_no_repair":8,"candidate_blocks":0},"rescued_packets":10,"rescued_codewords":0})",
    R"(implicit Thrive 10 7d8cc21cd5f75189 {"detected":11,"header_ok":0,"crc_ok":10,"decoded_first_pass":10,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":10,"rescued_codewords":0})",
    R"(implicit Sibling 10 7d8cc21cd5f75189 {"detected":11,"header_ok":0,"crc_ok":10,"decoded_first_pass":10,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":10,"rescued_codewords":0})",
    R"(implicit LoRaPHY 3 ef2c4f0cc6aff718 {"detected":11,"header_ok":0,"crc_ok":3,"decoded_first_pass":3,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":3,"rescued_codewords":0})",
    R"(implicit CIC 10 7d8cc21cd5f75189 {"detected":11,"header_ok":0,"crc_ok":10,"decoded_first_pass":6,"decoded_second_pass":4,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":10,"rescued_codewords":0})",
    R"(implicit CIC+ 10 7d8cc21cd5f75189 {"detected":11,"header_ok":0,"crc_ok":10,"decoded_first_pass":8,"decoded_second_pass":2,"bec":{"delta_prime":0,"delta1":46,"delta2":3,"delta3":0,"crc_checks":32,"blocks_no_repair":9,"candidate_blocks":12},"rescued_packets":10,"rescued_codewords":3})",
    R"(implicit AlignTrack* 10 7d8cc21cd5f75189 {"detected":11,"header_ok":0,"crc_ok":10,"decoded_first_pass":10,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":10,"rescued_codewords":0})",
    R"(implicit AlignTrack*+ 10 7d8cc21cd5f75189 {"detected":11,"header_ok":0,"crc_ok":10,"decoded_first_pass":10,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":39,"delta2":0,"delta3":0,"crc_checks":16,"blocks_no_repair":7,"candidate_blocks":4},"rescued_packets":10,"rescued_codewords":0})",
    R"(implicit CoRa 9 573fd50bce723254 {"detected":11,"header_ok":0,"crc_ok":9,"decoded_first_pass":5,"decoded_second_pass":4,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":9,"rescued_codewords":0})",
    R"(implicit CoRa+ 9 573fd50bce723254 {"detected":11,"header_ok":0,"crc_ok":9,"decoded_first_pass":5,"decoded_second_pass":4,"bec":{"delta_prime":0,"delta1":90,"delta2":5,"delta3":0,"crc_checks":22,"blocks_no_repair":20,"candidate_blocks":8},"rescued_packets":9,"rescued_codewords":0})",
    R"(implicit LZn-Thrive 9 d300edf5a330dc08 {"detected":9,"header_ok":0,"crc_ok":9,"decoded_first_pass":9,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":9,"rescued_codewords":0})",
    R"(implicit CoRa-TnB 9 181d511a40517635 {"detected":11,"header_ok":0,"crc_ok":9,"decoded_first_pass":9,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":50,"delta2":3,"delta3":0,"crc_checks":17,"blocks_no_repair":11,"candidate_blocks":5},"rescued_packets":9,"rescued_codewords":0})",
};
// clang-format on

std::vector<std::string> capture() {
  std::vector<std::string> out;
  for (const Config& c : kConfigs) {
    const sim::Trace trace = build(c);
    std::optional<rx::ImplicitHeader> implicit;
    if (c.implicit) implicit = rx::ImplicitHeader{kImplicitLen, kParams.cr};
    for (Scheme s : all_schemes()) {
      const rx::Receiver receiver =
          make_receiver(s, kParams, implicit, c.coding);
      Rng rng(7);
      rx::ReceiverStats stats;
      const auto decoded = receiver.decode_multi(trace.antenna_spans(), rng,
                                                 &stats);
      out.push_back(std::string(c.name) + " " + scheme_name(s) + " " +
                    summarize(decoded) + " " + stats.to_json());
    }
    if (c.coding == lora::Coding::kPaper && !c.implicit) {
      Rng rng(7);
      out.push_back(std::string(c.name) + " SIC " +
                    summarize(SicDecoder(kParams).decode(trace.iq, rng)));
    }
  }
  return out;
}

TEST(SchemeGolden, EverySchemeMatchesPinnedOutput) {
  const BackendGuard guard;
  ASSERT_TRUE(dsp::set_fft_backend("scalar"));
  const std::vector<std::string> got = capture();
  const std::vector<std::string> want(std::begin(kGolden), std::end(kGolden));
  if (got != want) {
    std::printf("captured listing:\n");
    for (const std::string& line : got) {
      std::printf("    R\"(%s)\",\n", line.c_str());
    }
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

}  // namespace
}  // namespace tnb::base
