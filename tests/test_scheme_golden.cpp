// Golden outputs of every registered scheme, and of SicDecoder.
//
// base::make_receiver writes each scheme's table row into
// rx::ReceiverOptions: a peak assigner, a sync front end, the use_bec and
// two_pass switches and Thrive's use_history. SicDecoder runs its own
// cancellation rounds on top of a receiver. This test pins what each of
// them decodes, so a refactor of the scheme registry or of the receiver's
// options must reproduce it bit for bit. Each receiver is rebuilt from
// nothing but make_receiver(...).options(), which pins that the options
// alone carry the scheme.
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
//
// The peers' tuning constants (CIC, CoRa, the CoRa-TnB hybrid, LZn) bind
// only on some inputs, so two more cases pin them: a dense trace (50
// pkt/s) through every scheme and SIC, and LZnSync's own detections on
// three traces where its gates decide. Both were captured while the
// constants were still option fields, before they were folded.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factories.hpp"
#include "baselines/lzn_sync.hpp"
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
  double load_pps = 16.0;
  double duration_s = 0.6;
};

constexpr Config kConfigs[] = {
    {"paper", lora::Coding::kPaper, false},
    {"wire", lora::Coding::kWire, false},
    {"implicit", lora::Coding::kPaper, true},
};

/// `tnb_gen --sf 8 --load 50 --duration 1 --seed 5`: collisions dense
/// enough that the CoRa-TnB hybrid's escalation threshold moves its
/// counters.
constexpr Config kDense{"dense", lora::Coding::kPaper, false, 50.0, 1.0};

/// The trace tnb_gen writes for `--load L --duration D --seed 5` plus the
/// configuration's format flags.
sim::Trace build(const Config& c) {
  Rng rng(5);
  sim::TraceOptions opt;
  opt.duration_s = c.duration_s;
  opt.load_pps = c.load_pps;
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

/// "count digest" of a detection list, in the order given: the bit
/// patterns of t0 and cfo_cycles, and the validation score.
std::string summarize(const std::vector<rx::DetectedPacket>& dets) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const rx::DetectedPacket& d : dets) {
    fnv1a(h, d.t0);
    fnv1a(h, d.cfo_cycles);
    fnv1a(h, static_cast<std::uint8_t>(d.validation_score));
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%zu %016llx", dets.size(),
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

std::vector<std::string> capture(std::span<const Config> configs) {
  std::vector<std::string> out;
  for (const Config& c : configs) {
    const sim::Trace trace = build(c);
    std::optional<rx::ImplicitHeader> implicit;
    if (c.implicit) implicit = rx::ImplicitHeader{kImplicitLen, kParams.cr};
    for (Scheme s : all_schemes()) {
      const rx::Receiver receiver(
          kParams, make_receiver(s, kParams, implicit, c.coding).options());
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

/// Compares a captured listing with its pinned lines, printing the
/// captured listing in the table's format on a mismatch.
void expect_listing(const std::vector<std::string>& got,
                    std::span<const char* const> pinned) {
  const std::vector<std::string> want(pinned.begin(), pinned.end());
  if (got != want) {
    std::printf("captured listing:\n");
    for (const std::string& line : got) {
      std::printf("    R\"(%s)\",\n", line.c_str());
    }
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(SchemeGolden, EverySchemeMatchesPinnedOutput) {
  const BackendGuard guard;
  ASSERT_TRUE(dsp::set_fft_backend("scalar"));
  expect_listing(capture(kConfigs), kGolden);
}

// clang-format off
const char* const kDenseGolden[] = {
    R"(dense TnB 25 8627ede3370495f8 {"detected":38,"header_ok":31,"crc_ok":25,"decoded_first_pass":22,"decoded_second_pass":3,"bec":{"delta_prime":0,"delta1":2981,"delta2":11,"delta3":0,"crc_checks":98,"blocks_no_repair":664,"candidate_blocks":68},"rescued_packets":25,"rescued_codewords":31})",
    R"(dense Thrive 14 daba1853a6c7186b {"detected":38,"header_ok":27,"crc_ok":14,"decoded_first_pass":13,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":14,"rescued_codewords":0})",
    R"(dense Sibling 15 8fcd1a089a77163c {"detected":38,"header_ok":28,"crc_ok":15,"decoded_first_pass":14,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":15,"rescued_codewords":0})",
    R"(dense LoRaPHY 7 2dcb10c351237a95 {"detected":38,"header_ok":9,"crc_ok":7,"decoded_first_pass":7,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":7,"rescued_codewords":0})",
    R"(dense CIC 11 1b4d287a899cc252 {"detected":38,"header_ok":22,"crc_ok":11,"decoded_first_pass":8,"decoded_second_pass":3,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":11,"rescued_codewords":0})",
    R"(dense CIC+ 17 25af6ba708fce094 {"detected":38,"header_ok":27,"crc_ok":17,"decoded_first_pass":11,"decoded_second_pass":6,"bec":{"delta_prime":0,"delta1":5581,"delta2":20,"delta3":0,"crc_checks":212,"blocks_no_repair":1171,"candidate_blocks":504},"rescued_packets":17,"rescued_codewords":26})",
    R"(dense AlignTrack* 16 73558b262c57c922 {"detected":38,"header_ok":29,"crc_ok":16,"decoded_first_pass":15,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":16,"rescued_codewords":0})",
    R"(dense AlignTrack*+ 25 cb326725549efbf9 {"detected":38,"header_ok":32,"crc_ok":25,"decoded_first_pass":23,"decoded_second_pass":2,"bec":{"delta_prime":0,"delta1":2061,"delta2":8,"delta3":0,"crc_checks":151,"blocks_no_repair":397,"candidate_blocks":461},"rescued_packets":25,"rescued_codewords":28})",
    R"(dense CoRa 6 a322b715a58c5f2a {"detected":38,"header_ok":21,"crc_ok":6,"decoded_first_pass":6,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":6,"rescued_codewords":0})",
    R"(dense CoRa+ 7 08ea73832208bce4 {"detected":38,"header_ok":28,"crc_ok":7,"decoded_first_pass":6,"decoded_second_pass":1,"bec":{"delta_prime":0,"delta1":6265,"delta2":190,"delta3":0,"crc_checks":247,"blocks_no_repair":1131,"candidate_blocks":887},"rescued_packets":7,"rescued_codewords":6})",
    R"(dense LZn-Thrive 9 91decb36bf527978 {"detected":9,"header_ok":9,"crc_ok":9,"decoded_first_pass":9,"decoded_second_pass":0,"bec":{"delta_prime":0,"delta1":0,"delta2":0,"delta3":0,"crc_checks":0,"blocks_no_repair":0,"candidate_blocks":0},"rescued_packets":9,"rescued_codewords":0})",
    R"(dense CoRa-TnB 24 c35f5411657f5752 {"detected":38,"header_ok":31,"crc_ok":24,"decoded_first_pass":22,"decoded_second_pass":2,"bec":{"delta_prime":0,"delta1":1655,"delta2":8,"delta3":0,"crc_checks":129,"blocks_no_repair":611,"candidate_blocks":94},"rescued_packets":24,"rescued_codewords":34})",
    R"(dense SIC 38 e2443478f6eb1fd1)",
};
// clang-format on

TEST(SchemeGolden, DenseTraceMatchesPinnedOutput) {
  const BackendGuard guard;
  ASSERT_TRUE(dsp::set_fft_backend("scalar"));
  expect_listing(capture({&kDense, 1}), kDenseGolden);
}

/// Traces on which LZnSync's gates decide, each "name" plus the trace:
///  - outdoor2: `tnb_gen --deployment outdoor2 --load 20 --duration 1
///    --seed 9`; the slot-support count moves it.
///  - near-far: three nodes at 40, 28 and 16 dB SNR, 20 pkt/s for 1 s.
///    The weak preambles sit under strong data symbols, so validation
///    scores of 8 and 9 occur: the floor ratio, the score gate and the
///    dominance ratio move it.
///  - spread: 20 nodes with SNRs drawn from 5 +/- 15 dB, clipped to
///    -10..40 dB, 30 pkt/s for 1 s: preambles near the noise floor and
///    under 50 dB colliders; the run length, the slot-support ratio, the
///    peaks kept per step and the CFO bound move it.
std::vector<std::pair<std::string, sim::Trace>> lzn_traces() {
  const auto make = [](std::vector<sim::NodeConfig> nodes, double load,
                       Rng& rng) {
    sim::TraceOptions opt;
    opt.duration_s = 1.0;
    opt.load_pps = load;
    opt.nodes = std::move(nodes);
    return sim::build_trace(kParams, opt, rng);
  };
  std::vector<std::pair<std::string, sim::Trace>> out;
  Rng outdoor(9);
  out.emplace_back("outdoor2",
                   make(sim::outdoor2_deployment().draw_nodes(outdoor), 20.0,
                        outdoor));
  Rng near_far(1);
  out.emplace_back("near-far",
                   make({{1, 40.0, 1500.0}, {2, 16.0, -2600.0},
                         {3, 28.0, 700.0}},
                        20.0, near_far));
  Rng spread(5);
  const sim::Deployment dep{.name = "spread",
                            .n_nodes = 20,
                            .snr_mean_db = 5.0,
                            .snr_stddev_db = 15.0,
                            .snr_min_db = -10.0,
                            .snr_max_db = 40.0};
  out.emplace_back("spread", make(dep.draw_nodes(spread), 30.0, spread));
  return out;
}

// "<trace> LZnSync <count> <digest>"
// clang-format off
const char* const kLZnGolden[] = {
    R"(outdoor2 LZnSync 9 0cd146054baa0ed8)",
    R"(near-far LZnSync 9 460df1d9db899ec2)",
    R"(spread LZnSync 8 a970cdf73aa4858b)",
};
// clang-format on

TEST(SchemeGolden, LZnSyncDetectionsMatchPinnedOutput) {
  const BackendGuard guard;
  ASSERT_TRUE(dsp::set_fft_backend("scalar"));
  std::vector<std::string> got;
  for (const auto& [name, trace] : lzn_traces()) {
    LZnSync sync(kParams);
    got.push_back(name + " LZnSync " + summarize(sync.sync(trace.iq)));
  }
  expect_listing(got, kLZnGolden);
}

}  // namespace
}  // namespace tnb::base
