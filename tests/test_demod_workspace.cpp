// Pins the contract of the zero-allocation demodulation kernels (DESIGN.md
// "Hot-path kernels"):
//  - FracSync::refine vs the reference time-domain search
//    (testing/reference_frac_sync.hpp) on collided preambles,
//  - zero heap allocations in a warm workspace's steady-state demod loop,
//  - fold() reusing a correctly-sized output without churn.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "core/frac_sync.hpp"
#include "lora/chirp.hpp"
#include "lora/demodulator.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"
#include "testing/reference_frac_sync.hpp"

using namespace tnb;

// ---------------------------------------------------------------------------
// Global allocation counter. Every operator new in this binary bumps it, so
// a test can assert that a region of code performs no heap allocations.
// malloc/free back the storage (they satisfy any fundamental alignment we
// use via the padding trick for the aligned overloads).
namespace {

std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (align <= alignof(std::max_align_t)) {
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  } else {
    void* p = nullptr;
    // aligned_alloc needs size to be a multiple of align.
    const std::size_t padded = (size + align - 1) / align * align;
    p = std::aligned_alloc(align, padded != 0 ? padded : align);
    if (p != nullptr) return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

lora::Params make_params(unsigned sf, unsigned osf) {
  return lora::Params{.sf = sf, .cr = 4, .bandwidth_hz = 125e3, .osf = osf};
}

TEST(DemodWorkspace, FoldReusesCorrectlySizedOutput) {
  const lora::Params p = make_params(8, 4);
  const lora::Demodulator demod(p);
  Rng rng(13);
  std::vector<cfloat> spec(p.sps());
  for (auto& v : spec) v = rng.complex_normal();
  SignalVector a, b;
  demod.fold(spec, a);
  b.resize(p.n_bins());
  const float* data_before = b.data();
  const std::size_t cap_before = b.capacity();
  demod.fold(spec, b);
  EXPECT_EQ(data_before, b.data());
  EXPECT_EQ(cap_before, b.capacity());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

// --- steady-state allocation freedom --------------------------------------

TEST(DemodWorkspace, WarmWorkspaceDemodAllocatesNothing) {
  const lora::Params p = make_params(10, 4);
  const lora::Demodulator demod(p);
  lora::Workspace ws(p);
  const auto sym = lora::make_upchirp(p, 100);
  SignalVector out;
  out.resize(p.n_bins());
  // Warm-up: size every buffer and populate the phasor cache for both CFOs.
  demod.signal_vector_into(sym, 0.25, /*up=*/true, ws, out);
  demod.signal_vector_into(sym, -1.5, /*up=*/true, ws, out);
  (void)demod.demod_value(sym, 0.25, ws);

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    demod.signal_vector_into(sym, i % 2 == 0 ? 0.25 : -1.5, /*up=*/true, ws,
                             out);
    (void)demod.demod_value(sym, 0.25, ws);
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after)
      << "steady-state demod loop performed " << (after - before)
      << " heap allocations";
}

// --- FracSync: refine vs the reference time-domain search ----------------

/// Builds a trace with two collided packets and returns it; t0s/cfos get
/// the ground-truth placement of each packet.
IqBuffer make_collided_trace(const lora::Params& p, std::vector<double>& t0s,
                             std::vector<double>& cfos) {
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(10, 0x3C);
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  const double sps = static_cast<double>(p.sps());
  IqBuffer trace(mod.packet_samples(symbols.size()) +
                     static_cast<std::size_t>(14.0 * sps),
                 cfloat{0.0f, 0.0f});
  const double starts[2] = {2.0 * sps + 0.37, 6.0 * sps + 0.81};
  const double cfo_hz[2] = {1700.0, -2300.0};
  const double amps[2] = {1.0, 2.4};
  for (int k = 0; k < 2; ++k) {
    lora::WaveformOptions w;
    w.frac_delay = starts[k] - std::floor(starts[k]);
    w.cfo_hz = cfo_hz[k];
    w.amplitude = amps[k];
    const IqBuffer pkt = mod.synthesize_shifts(symbols, w);
    const auto off = static_cast<std::size_t>(std::floor(starts[k]));
    for (std::size_t s = 0; s < pkt.size() && off + s < trace.size(); ++s) {
      trace[off + s] += pkt[s];
    }
    t0s.push_back(starts[k]);
    cfos.push_back(p.cfo_hz_to_cycles(cfo_hz[k]));
  }
  return trace;
}

TEST(FracSyncCache, RefineMatchesUncachedReferenceOnCollidedPreambles) {
  const lora::Params p = make_params(8, 2);
  const rx::FracSync fsync(p);
  std::vector<double> t0s, cfos;
  const IqBuffer trace = make_collided_trace(p, t0s, cfos);
  for (std::size_t k = 0; k < t0s.size(); ++k) {
    // Slightly wrong coarse estimates, as detection would hand over.
    const double t0 = std::floor(t0s[k]);
    const double cfo = std::floor(cfos[k] + 0.5);
    const tnb::testing::ReferenceRefine ref =
        tnb::testing::reference_refine(p, trace, t0, cfo);
    lora::Workspace ws(p);
    const rx::FracSyncResult got = fsync.refine(trace, t0, cfo, ws);
    EXPECT_EQ(ref.gated, got.gated) << "packet " << k;
    if (ref.gated) {
      EXPECT_EQ(ref.dt, got.dt) << "packet " << k;
      EXPECT_EQ(ref.df, got.df) << "packet " << k;
      EXPECT_EQ(ref.q, fsync.q(trace, t0, cfo, got.dt, got.df,
                               /*gate=*/true, ws))
          << "packet " << k;
    } else {
      // No Q* gate passed: the coarse estimate stands.
      EXPECT_EQ(got.dt, 0.0) << "packet " << k;
      EXPECT_EQ(got.df, 0.0) << "packet " << k;
    }
  }
}

TEST(FracSyncCache, QMatchesRefineObjectiveAtChosenPoint) {
  // The search blends integer-start spectra, yet the point it chooses must
  // pass the exact public objective's Q* gate there. Packet 1 is the gated
  // one (packet 0, the weaker, passes no Q* gate).
  const lora::Params p = make_params(8, 2);
  const rx::FracSync fsync(p);
  std::vector<double> t0s, cfos;
  const IqBuffer trace = make_collided_trace(p, t0s, cfos);
  const double t0 = std::floor(t0s[1]);
  const double cfo = std::floor(cfos[1] + 0.5);
  lora::Workspace ws(p);
  const rx::FracSyncResult r = fsync.refine(trace, t0, cfo, ws);
  ASSERT_TRUE(r.gated);
  EXPECT_GT(fsync.q(trace, t0, cfo, r.dt, r.df, /*gate=*/true, ws), 0.0);
}

}  // namespace
