// Differential test of FracSync::refine against the time-domain search it
// replaced (testing::reference_refine).
//
// refine() evaluates phases 2 and 3 by blending spectra transformed at
// integer window starts, which rounds differently from re-extracting and
// re-transforming every point. What the receiver consumes is the gated
// decision: it adds (dt, df) only when `gated` is set, and keeps the coarse
// estimate otherwise. So on every detection of a grid of synthesized
// traces (SF 7-12, OSF 1/4/8, 2-50 pkt/s, one through the ETU channel;
// 973 detections), on each FFT backend the CPU has, `gated` must
// agree, and every gated (dt, df) and its exact objective q must be
// bit-equal to the reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "channel/tdl.hpp"
#include "common/rng.hpp"
#include "core/detect.hpp"
#include "core/frac_sync.hpp"
#include "dsp/fft_backend.hpp"
#include "sim/deployment.hpp"
#include "sim/trace_builder.hpp"
#include "testing/reference_frac_sync.hpp"

namespace tnb::rx {
namespace {

struct TraceCase {
  const char* name;
  unsigned sf;
  unsigned osf;
  double load_pps;
  double duration_s;
  bool etu;
  std::uint64_t seed;
};

constexpr TraceCase kCases[] = {
    {"sf7_osf8_dense", 7, 8, 50.0, 3.0, false, 7},
    {"sf7_osf1_dense", 7, 1, 50.0, 12.0, false, 17},
    {"sf8_osf8", 8, 8, 20.0, 3.0, false, 8},
    {"sf8_osf4_etu", 8, 4, 30.0, 2.0, true, 18},
    {"sf9_osf4", 9, 4, 20.0, 4.0, false, 9},
    {"sf10_osf1", 10, 1, 16.0, 6.0, false, 10},
    {"sf11_osf4", 11, 4, 3.0, 8.0, false, 11},
    {"sf12_osf1", 12, 1, 2.0, 12.0, false, 12},
};

lora::Params params_for(const TraceCase& c) {
  lora::Params p{.sf = c.sf, .cr = 4, .bandwidth_hz = 125e3, .osf = c.osf};
  p.ldro = c.sf >= 11;
  return p;
}

sim::Trace build(const TraceCase& c) {
  Rng population(c.seed);
  sim::TraceOptions opt;
  opt.duration_s = c.duration_s;
  opt.load_pps = c.load_pps;
  const sim::Deployment dep =
      c.etu ? sim::etu_deployment(c.sf) : sim::indoor_deployment();
  opt.nodes = dep.draw_nodes(population);
  std::unique_ptr<chan::TdlChannel> channel;
  if (c.etu) {
    channel = std::make_unique<chan::TdlChannel>(chan::etu_profile(), 5.0);
    opt.channel = channel.get();
  }
  Rng rng(c.seed + 1000);
  return sim::build_trace(params_for(c), opt, rng);
}

/// Restores the process-global backend active when the test started.
struct BackendGuard {
  const char* prev = dsp::active_fft_backend().name();
  ~BackendGuard() { dsp::set_fft_backend(prev); }
};

/// One ctest per FFT backend name; a backend this CPU lacks is skipped.
class FracSyncReference : public ::testing::TestWithParam<const char*> {};

TEST_P(FracSyncReference, GatedDecisionsMatchTimeDomainSearch) {
  const char* backend = GetParam();
  if (dsp::find_fft_backend(backend) == nullptr) {
    GTEST_SKIP() << backend << " is not available on this CPU";
  }
  const BackendGuard guard;
  ASSERT_TRUE(dsp::set_fft_backend(backend));
  std::size_t detections = 0, gated = 0;
  for (const TraceCase& c : kCases) {
    const lora::Params p = params_for(c);
    const sim::Trace trace = build(c);
    lora::Workspace ws(p);
    const std::vector<DetectedPacket> dets = Detector(p).detect(trace.iq, ws);
    const FracSync fsync(p);
    for (const DetectedPacket& d : dets) {
      const tnb::testing::ReferenceRefine want =
          tnb::testing::reference_refine(p, trace.iq, d.t0, d.cfo_cycles);
      const FracSyncResult got = fsync.refine(trace.iq, d.t0, d.cfo_cycles, ws);
      char where[160];
      std::snprintf(where, sizeof where, "%s, t0 %a, cfo %a", c.name, d.t0,
                    d.cfo_cycles);
      ++detections;
      ASSERT_EQ(got.gated, want.gated) << where;
      if (!want.gated) continue;
      ++gated;
      EXPECT_EQ(got.dt, want.dt) << where;
      EXPECT_EQ(got.df, want.df) << where;
      // The exact objective at refine's point is the reference's best.
      EXPECT_EQ(fsync.q(trace.iq, d.t0, d.cfo_cycles, got.dt, got.df,
                        /*gate=*/true, ws),
                want.q)
          << where;
    }
  }
  std::printf("%s: %zu detections, %zu gated\n", backend, detections, gated);
  // The grid must keep covering both outcomes at scale.
  EXPECT_GE(detections, 900u);
  EXPECT_GT(detections - gated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, FracSyncReference,
                         ::testing::Values("scalar", "avx2", "avx512"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace tnb::rx
