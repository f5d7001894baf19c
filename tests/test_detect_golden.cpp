// Golden outputs of Detector::detect, and workspace independence.
//
// Every later stage starts from the detector's (t0, CFO), so a detection
// that moves by one ulp can change a decode. The expected values below are
// hexfloats captured on the scalar backend from the detector that
// re-demodulated every step-2 check window at every shift; the validation
// memo (DESIGN.md "Hot-path kernels") must reproduce them bit for bit.
// Both gates the pipeline runs are pinned: the decode gate (the
// DetectorOptions default, 8 of 12 checks) and the StreamingReceiver
// liveness gate (6). The traces are synthesized with libm, so another
// libm can shift them; a failing case prints its captured listing in the
// table's format.
//
// The second test checks that detection depends on nothing but the trace
// and options: one workspace reused across every trace and gate returns
// exactly what a fresh workspace returns, on every registered backend. The
// third checks the property the streaming receiver's shared scan rests on:
// a trace's scan is the join of the scans of its pieces, split anywhere on
// the symbol grid, and detecting over a joined scan detects what scanning
// the whole trace does.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/detect.hpp"
#include "dsp/fft_backend.hpp"
#include "sim/deployment.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::rx {
namespace {

constexpr int kDecodeGate = 8;    // DetectorOptions{}.min_validation_score
constexpr int kLivenessGate = 6;  // StreamingReceiver's liveness detector

struct TraceCase {
  const char* name;
  unsigned sf;
  double load_pps;
  double duration_s;
  std::uint64_t seed;
  unsigned osf = 8;
};

// Indoor traces at OSF 8; sf8_collided is the 50 pkt/s collision case.
constexpr TraceCase kCases[] = {
    {"sf7", 7, 8.0, 1.0, 71},
    {"sf8", 8, 8.0, 1.0, 81},
    {"sf8_collided", 8, 50.0, 0.5, 82},
    {"sf10", 10, 5.0, 1.5, 101},
};

lora::Params params_for(const TraceCase& c) {
  return lora::Params{.sf = c.sf, .cr = 4, .bandwidth_hz = 125e3, .osf = c.osf};
}

sim::Trace build(const TraceCase& c) {
  Rng population(c.seed);
  sim::TraceOptions opt;
  opt.duration_s = c.duration_s;
  opt.load_pps = c.load_pps;
  opt.nodes = sim::indoor_deployment().draw_nodes(population);
  Rng rng(c.seed + 1000);
  return sim::build_trace(params_for(c), opt, rng);
}

std::vector<DetectedPacket> detect(const TraceCase& c, const sim::Trace& t,
                                   int gate, lora::Workspace& ws) {
  DetectorOptions opt;
  opt.min_validation_score = gate;
  return Detector(params_for(c), opt).detect(t.iq, ws);
}

/// One line per detection, every double as an exact hexfloat.
std::vector<std::string> lines(const std::vector<DetectedPacket>& dets) {
  std::vector<std::string> out;
  for (const DetectedPacket& d : dets) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%a %a %a %d", d.t0, d.cfo_cycles,
                  d.strength, d.validation_score);
    out.emplace_back(buf);
  }
  return out;
}

/// Restores the process-global backend active when the test started.
struct BackendGuard {
  const char* prev = dsp::active_fft_backend().name();
  ~BackendGuard() { dsp::set_fft_backend(prev); }
};

struct Golden {
  const char* name;
  int gate;
  std::vector<std::string> lines;  // "t0 cfo_cycles strength score"
};

// clang-format off
const Golden kGolden[] = {
    {"sf7", 8, {
      "0x1.882a03312c842p+12 -0x1.2dca045f97ccp+1 0x1.42c1b0cc787ffp+15 12",
      "0x1.64976023b2b1bp+16 -0x1.6ee640d84304p+1 0x1.a8879dde214d6p+12 12",
      "0x1.de83ff530935bp+17 0x1.7f21502548bcp+1 0x1.2fa4195f2207cp+15 12",
      "0x1.173d275b658bap+18 0x1.1e002cba4fe5p+2 0x1.c8ba08883c29cp+14 12",
      "0x1.3d4f7fcc461f1p+19 -0x1.a5f7281db484p+0 0x1.9abdbe5712d97p+13 12",
      "0x1.6fcb7e11896ffp+19 0x1.8b7311042da8p-1 0x1.51ef60687e1a4p+16 12",
      "0x1.9c6179aa31144p+19 -0x1.1bc2a589fee6p+1 0x1.fefb5681d9e49p+13 12",
      "0x1.a09095d888b8ap+19 -0x1.265d74bff5ep+2 0x1.6294369ff6b9dp+12 12",
    }},
    {"sf7", 6, {
      "0x1.882a03312c842p+12 -0x1.2dca045f97ccp+1 0x1.42c1b0cc787ffp+15 12",
      "0x1.64976023b2b1bp+16 -0x1.6ee640d84304p+1 0x1.a8879dde214d6p+12 12",
      "0x1.de83ff530935bp+17 0x1.7f21502548bcp+1 0x1.2fa4195f2207cp+15 12",
      "0x1.173d275b658bap+18 0x1.1e002cba4fe5p+2 0x1.c8ba08883c29cp+14 12",
      "0x1.3d4f7fcc461f1p+19 -0x1.a5f7281db484p+0 0x1.9abdbe5712d97p+13 12",
      "0x1.6fcb7e11896ffp+19 0x1.8b7311042da8p-1 0x1.51ef60687e1a4p+16 12",
      "0x1.9c6179aa31144p+19 -0x1.1bc2a589fee6p+1 0x1.fefb5681d9e49p+13 12",
      "0x1.a09095d888b8ap+19 -0x1.265d74bff5ep+2 0x1.6294369ff6b9dp+12 12",
    }},
    {"sf8", 8, {
      "0x1.a3a334af04f8bp+12 -0x1.8e733dbd321p-1 0x1.cfb82b264ce26p+15 12",
      "0x1.539df1b8b3a9dp+17 -0x1.0f89090e1e55p+3 0x1.5c3a66d7cc6dcp+15 12",
      "0x1.895f7379b7f56p+17 -0x1.bbdfa309957p-1 0x1.c074362f2d794p+11 12",
      "0x1.4d560de6c026p+18 0x1.ffff45a0d08cp+2 0x1.04b4b7b17eabp+17 12",
      "0x1.8f77ada7eb3b7p+18 0x1.9c8ab0e1b64p-3 0x1.48214cab309b2p+15 12",
      "0x1.b5a2071b8397p+18 -0x1.1bef189b53c5p+3 0x1.1072fffccdf42p+13 12",
      "0x1.344782ddfbafp+19 -0x1.43d3ae7929cp+0 0x1.50062ef6db416p+13 12",
      "0x1.5dca6f0f0b46cp+19 0x1.3407fce30cd8p+3 0x1.760e66ad0db9ep+14 12",
    }},
    {"sf8", 6, {
      "0x1.a3a334af04f8bp+12 -0x1.8e733dbd321p-1 0x1.cfb82b264ce26p+15 12",
      "0x1.539df1b8b3a9dp+17 -0x1.0f89090e1e55p+3 0x1.5c3a66d7cc6dcp+15 12",
      "0x1.895f7379b7f56p+17 -0x1.bbdfa309957p-1 0x1.c074362f2d794p+11 12",
      "0x1.4d560de6c026p+18 0x1.ffff45a0d08cp+2 0x1.04b4b7b17eabp+17 12",
      "0x1.8f77ada7eb3b7p+18 0x1.9c8ab0e1b64p-3 0x1.48214cab309b2p+15 12",
      "0x1.b5a2071b8397p+18 -0x1.1bef189b53c5p+3 0x1.1072fffccdf42p+13 12",
      "0x1.344782ddfbafp+19 -0x1.43d3ae7929cp+0 0x1.50062ef6db416p+13 12",
      "0x1.5dca6f0f0b46cp+19 0x1.3407fce30cd8p+3 0x1.760e66ad0db9ep+14 12",
    }},
    {"sf8_collided", 8, {
      "0x1.4e472211fa8c6p+9 -0x1.e4b38c02edc4p+2 0x1.cc80399b2cd25p+16 12",
      "0x1.e10f366a136c1p+14 -0x1.0f366a136c1p+3 0x1.49483eb0db29ap+15 12",
      "0x1.3a2bddfe179c9p+16 -0x1.e1d5c82f38b8p+2 0x1.34b1b10d9d373p+12 12",
      "0x1.3d2d7d55254f6p+16 -0x1.e76abd3639b8p+2 0x1.4c09fb63bf5afp+12 12",
      "0x1.7248560b6cd5fp+16 -0x1.81474c0f4d04p+2 0x1.377ac522dbe6fp+14 12",
      "0x1.21bd7f4d75f18p+17 0x1.702c512d0d4p+0 0x1.d7972895eebebp+12 12",
      "0x1.38a80281c26bep+17 -0x1.7fac9423445p+2 0x1.223745756c681p+11 12",
      "0x1.4e2c54a2192b2p+17 0x1.1f7512fef4e1p+3 0x1.8566522a1a759p+12 12",
      "0x1.a8481f7ebe3b3p+17 0x1.bc468baeebdcp+2 0x1.c5c8d42d4d585p+13 12",
      "0x1.b2d1ed3970817p+17 -0x1.0f130f475ea7p+3 0x1.4e3550af60504p+13 12",
      "0x1.dd64dc4619483p+17 -0x1.2630fc38780bp+3 0x1.1ceb974d467f8p+9 11",
      "0x1.f5515dcf92f86p+17 0x1.46c222e617cp-2 0x1.2b22b6ec6fa7dp+11 12",
      "0x1.16a022ca101d3p+18 0x1.96fe79d7373cp+1 0x1.0fa000b3b4055p+15 12",
      "0x1.211316d9965ecp+18 -0x1.43e7b492b8bp+0 0x1.505baf943b29dp+10 12",
      "0x1.2848c9b31c0a5p+18 0x1.b29f04f147bp+1 0x1.6984834144ad9p+13 12",
      "0x1.33a503fb20778p+18 -0x1.e22ee9fe212ap+2 0x1.e47d2589f785bp+10 12",
    }},
    {"sf8_collided", 6, {
      "0x1.4e472211fa8c6p+9 -0x1.e4b38c02edc4p+2 0x1.cc80399b2cd25p+16 12",
      "0x1.e10f366a136c1p+14 -0x1.0f366a136c1p+3 0x1.49483eb0db29ap+15 12",
      "0x1.3a2bddfe179c9p+16 -0x1.e1d5c82f38b8p+2 0x1.34b1b10d9d373p+12 12",
      "0x1.3d2d7d55254f6p+16 -0x1.e76abd3639b8p+2 0x1.4c09fb63bf5afp+12 12",
      "0x1.7248560b6cd5fp+16 -0x1.81474c0f4d04p+2 0x1.377ac522dbe6fp+14 12",
      "0x1.21bd7f4d75f18p+17 0x1.702c512d0d4p+0 0x1.d7972895eebebp+12 12",
      "0x1.38a80281c26bep+17 -0x1.7fac9423445p+2 0x1.223745756c681p+11 12",
      "0x1.4e2c54a2192b2p+17 0x1.1f7512fef4e1p+3 0x1.8566522a1a759p+12 12",
      "0x1.a8481f7ebe3b3p+17 0x1.bc468baeebdcp+2 0x1.c5c8d42d4d585p+13 12",
      "0x1.b2d1ed3970817p+17 -0x1.0f130f475ea7p+3 0x1.4e3550af60504p+13 12",
      "0x1.dd64dc4619483p+17 -0x1.2630fc38780bp+3 0x1.1ceb974d467f8p+9 11",
      "0x1.f5515dcf92f86p+17 0x1.46c222e617cp-2 0x1.2b22b6ec6fa7dp+11 12",
      "0x1.16a022ca101d3p+18 0x1.96fe79d7373cp+1 0x1.0fa000b3b4055p+15 12",
      "0x1.211316d9965ecp+18 -0x1.43e7b492b8bp+0 0x1.505baf943b29dp+10 12",
      "0x1.2848c9b31c0a5p+18 0x1.b29f04f147bp+1 0x1.6984834144ad9p+13 12",
      "0x1.33a503fb20778p+18 -0x1.e22ee9fe212ap+2 0x1.e47d2589f785bp+10 12",
    }},
    {"sf10", 8, {
      "0x1.31a2c8061c006p+14 0x1.10883a2d1cccp+4 0x1.34c4ae7eb6617p+17 12",
      "0x1.b05fcc82628bp+17 -0x1.de3a5ab7630ep+4 0x1.d370f2a591b5p+15 11",
      "0x1.cf8c372a1074ep+17 -0x1.ef21300cc4cp+0 0x1.9e3dcabe4f7a1p+17 12",
      "0x1.477a0e1a3fd0bp+18 -0x1.7bcaebb92ecp+1 0x1.3db339af97d95p+18 12",
      "0x1.abfba2c20a481p+18 -0x1.89d0c75e563cp+4 0x1.076a0749deb7ap+14 12",
      "0x1.43b6f6ba3061fp+19 0x1.6073c72119dcp+4 0x1.546a1abd8c5d3p+17 12",
      "0x1.775e6507df6a3p+19 -0x1.3b7183f49668p+5 0x1.5d706abb58065p+18 12",
      "0x1.9ba278514adb3p+19 0x1.1da097ad23b8p+2 0x1.e097141ca9192p+14 12",
    }},
    {"sf10", 6, {
      "0x1.31a2c8061c006p+14 0x1.10883a2d1cccp+4 0x1.34c4ae7eb6617p+17 12",
      "0x1.b05fcc82628bp+17 -0x1.de3a5ab7630ep+4 0x1.d370f2a591b5p+15 11",
      "0x1.cf8c372a1074ep+17 -0x1.ef21300cc4cp+0 0x1.9e3dcabe4f7a1p+17 12",
      "0x1.477a0e1a3fd0bp+18 -0x1.7bcaebb92ecp+1 0x1.3db339af97d95p+18 12",
      "0x1.abfba2c20a481p+18 -0x1.89d0c75e563cp+4 0x1.076a0749deb7ap+14 12",
      "0x1.43b6f6ba3061fp+19 0x1.6073c72119dcp+4 0x1.546a1abd8c5d3p+17 12",
      "0x1.775e6507df6a3p+19 -0x1.3b7183f49668p+5 0x1.5d706abb58065p+18 12",
      "0x1.9ba278514adb3p+19 0x1.1da097ad23b8p+2 0x1.e097141ca9192p+14 12",
      "0x1.204ac467e45e6p+20 -0x1.0f988830699p+3 0x1.bfc9164769952p+14 6",
      "0x1.244cf297e2c19p+20 -0x1.9b2487c93728p+3 0x1.33f3de657a9e8p+12 6",
    }},
};
// clang-format on

TEST(DetectGolden, ScalarOutputsMatchPinnedValues) {
  const BackendGuard guard;
  ASSERT_TRUE(dsp::set_fft_backend("scalar"));
  std::size_t checked = 0;
  for (const TraceCase& c : kCases) {
    const sim::Trace t = build(c);
    for (const int gate : {kDecodeGate, kLivenessGate}) {
      lora::Workspace ws;
      const std::vector<std::string> got = lines(detect(c, t, gate, ws));
      const Golden* want = nullptr;
      for (const Golden& g : kGolden) {
        if (std::string(g.name) == c.name && g.gate == gate) want = &g;
      }
      std::string listing;
      for (const std::string& l : got) listing += "      \"" + l + "\",\n";
      if (want == nullptr) {
        ADD_FAILURE() << "no golden entry; captured:\n    {\"" << c.name
                      << "\", " << gate << ", {\n" << listing << "    }},";
        continue;
      }
      EXPECT_EQ(got, want->lines) << c.name << " at gate " << gate
                                  << "; got:\n" << listing;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

TEST(DetectGolden, ReusedWorkspaceMatchesFreshOnEveryBackend) {
  const BackendGuard guard;
  std::vector<sim::Trace> traces;
  for (const TraceCase& c : kCases) traces.push_back(build(c));
  for (const dsp::FftBackend* be : dsp::fft_backends()) {
    ASSERT_TRUE(dsp::set_fft_backend(be->name()));
    // One workspace carried across traces of different SF and both gates
    // (so across repeated calls on one trace): whatever it holds from
    // earlier detections must not change a later one.
    lora::Workspace reused;
    for (std::size_t i = 0; i < std::size(kCases); ++i) {
      for (const int gate : {kDecodeGate, kLivenessGate}) {
        lora::Workspace fresh;
        const auto want = lines(detect(kCases[i], traces[i], gate, fresh));
        const auto got = lines(detect(kCases[i], traces[i], gate, reused));
        EXPECT_EQ(got, want) << be->name() << ", " << kCases[i].name
                             << " at gate " << gate;
        EXPECT_FALSE(want.empty()) << kCases[i].name;
      }
    }
  }
}

/// Whether two scans hold the same peaks, bit for bit.
bool same_bits(const std::vector<WindowPeaks>& a,
               const std::vector<WindowPeaks>& b) {
  const auto same_peak = [](const dsp::Peak& x, const dsp::Peak& y) {
    return x.index == y.index &&
           std::bit_cast<std::uint32_t>(x.value) ==
               std::bit_cast<std::uint32_t>(y.value) &&
           std::bit_cast<std::uint64_t>(x.frac_index) ==
               std::bit_cast<std::uint64_t>(y.frac_index);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const WindowPeaks& x, const WindowPeaks& y) {
                      return std::equal(x.begin(), x.end(), y.begin(),
                                        y.end(), same_peak);
                    });
}

TEST(DetectGolden, ScanOfSplitTraceJoinsOnEveryBackend) {
  const BackendGuard guard;
  for (const dsp::FftBackend* be : dsp::fft_backends()) {
    ASSERT_TRUE(dsp::set_fft_backend(be->name()));
    for (const TraceCase& base : kCases) {
      for (const unsigned osf : {1u, 8u}) {
        TraceCase c = base;
        c.osf = osf;
        const lora::Params p = params_for(c);
        const sim::Trace t = build(c);
        const std::span<const cfloat> iq = t.iq;
        const std::size_t sps = p.sps();
        const Detector det(p);
        lora::Workspace ws;
        const std::vector<WindowPeaks> whole = det.scan(iq, ws);
        ASSERT_EQ(whole.size(), iq.size() / sps);
        const std::vector<std::string> want = lines(det.detect(iq, ws));
        EXPECT_FALSE(want.empty()) << c.name << " at OSF " << osf;
        Rng rng(c.seed + osf);
        for (int round = 0; round < 3; ++round) {
          // Pieces of 1 to 40 symbols; the last one keeps the ragged tail.
          std::vector<WindowPeaks> joined;
          std::size_t at = 0;
          while (at < iq.size()) {
            const std::size_t len = std::min(
                (1 + rng.uniform_index(40)) * sps, iq.size() - at);
            for (WindowPeaks& w : det.scan(iq.subspan(at, len), ws)) {
              joined.push_back(std::move(w));
            }
            at += len;
          }
          EXPECT_TRUE(same_bits(joined, whole))
              << be->name() << ", " << c.name << " at OSF " << osf
              << ", round " << round;
          EXPECT_EQ(lines(det.detect(iq, joined, ws)), want)
              << be->name() << ", " << c.name << " at OSF " << osf
              << ", round " << round;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tnb::rx
