// Microbenchmarks of TnB's computational kernels (google-benchmark):
// FFT, signal-vector computation (by-value and workspace kernels), peak
// finding, frac-sync refinement, BEC block decoding, and Thrive's
// per-checking-point assignment.
//
// Invoked by the CI perf-smoke job as
//   bench_micro_components --benchmark_out=BENCH_micro.json
//                          --benchmark_out_format=json
// The custom main() additionally prints one "BENCH <name> <real_ns>" line
// per benchmark, so a summary needs nothing beyond grep (bench/README.md).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "core/bec.hpp"
#include "core/frac_sync.hpp"
#include "core/frame_codec.hpp"
#include "core/thrive.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_backend.hpp"
#include "dsp/peak_finder.hpp"
#include "lora/chirp.hpp"
#include "lora/demodulator.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"

using namespace tnb;

namespace {

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<cfloat> buf(n);
  for (auto& v : buf) v = rng.complex_normal();
  const auto& plan = dsp::fft_plan(n);
  for (auto _ : state) {
    plan.forward(std::span<cfloat>(buf));
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(2048)->Arg(8192);

void BM_ForwardBatch(benchmark::State& state) {
  // Batched transforms through the active backend: SF and OSF set the
  // transform size (sps = 2^SF * OSF), the third arg how many rows one
  // forward_batch call executes. batch=1 is the single-transform
  // reference the amortization is measured against.
  const unsigned sf = static_cast<unsigned>(state.range(0));
  const unsigned osf = static_cast<unsigned>(state.range(1));
  const std::size_t batch = static_cast<std::size_t>(state.range(2));
  const std::size_t sps = (std::size_t{1} << sf) * osf;
  Rng rng(7);
  std::vector<cfloat> rows(batch * sps);
  for (auto& v : rows) v = rng.complex_normal();
  const auto& plan = dsp::fft_plan(sps);
  for (auto _ : state) {
    plan.forward_batch(std::span<cfloat>(rows), batch);
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_ForwardBatch)
    ->ArgsProduct({{8, 12}, {1, 8}, {1, 8, 64}});

void BM_DechirpWorkspace(benchmark::State& state) {
  // One symbol's dechirp + FFT + fold through signal_vector_into with a
  // warm workspace and caller-owned output, i.e. what the receiver's
  // steady-state decode loop runs.
  const unsigned sf = static_cast<unsigned>(state.range(0));
  lora::Params p{.sf = sf, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  const lora::Demodulator demod(p);
  lora::Workspace ws(p);
  const auto sym = lora::make_upchirp(p, 42);
  SignalVector sv;
  sv.resize(p.n_bins());
  demod.signal_vector_into(sym, 1.37, /*up=*/true, ws, sv);  // warm up
  for (auto _ : state) {
    demod.signal_vector_into(sym, 1.37, /*up=*/true, ws, sv);
    benchmark::DoNotOptimize(sv.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DechirpWorkspace)->Arg(8)->Arg(10)->Arg(12);

void BM_FracSyncRefine(benchmark::State& state) {
  // Full three-phase refine() on a synthesized packet with fractional
  // delay and CFO — the frac_sync pipeline stage per detection.
  const unsigned sf = static_cast<unsigned>(state.range(0));
  lora::Params p{.sf = sf, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(10, 0x3C);
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  const double sps = static_cast<double>(p.sps());
  lora::WaveformOptions w;
  w.frac_delay = 0.37;
  w.cfo_hz = 1700.0;
  const IqBuffer pkt = mod.synthesize_shifts(symbols, w);
  IqBuffer trace(pkt.size() + static_cast<std::size_t>(4.0 * sps),
                 cfloat{0.0f, 0.0f});
  const std::size_t off = 2 * p.sps();
  for (std::size_t s = 0; s < pkt.size(); ++s) trace[off + s] = pkt[s];
  const double t0 = static_cast<double>(off);
  const double cfo = std::floor(p.cfo_hz_to_cycles(w.cfo_hz) + 0.5);
  const rx::FracSync fsync(p);
  lora::Workspace ws(p);
  for (auto _ : state) {
    const rx::FracSyncResult r = fsync.refine(trace, t0, cfo, ws);
    benchmark::DoNotOptimize(&r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FracSyncRefine)->Arg(8)->Arg(10)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_PeakFinder(benchmark::State& state) {
  Rng rng(2);
  std::vector<float> sv(1024);
  for (auto& v : sv) v = static_cast<float>(rng.uniform());
  sv[100] = 40.0f;
  sv[500] = 25.0f;
  dsp::PeakFinderOptions opt;
  opt.circular = true;
  opt.sel = 2.0;
  opt.max_peaks = 16;
  for (auto _ : state) {
    const auto peaks = dsp::find_peaks(sv, opt);
    benchmark::DoNotOptimize(peaks.data());
  }
}
BENCHMARK(BM_PeakFinder);

void BM_BecDecodeBlock(benchmark::State& state) {
  const unsigned cr = static_cast<unsigned>(state.range(0));
  Rng rng(3);
  const rx::Bec bec(8, cr);
  std::vector<std::uint8_t> rows(8);
  for (auto& r : rows) r = lora::codebook(cr)[rng.uniform_index(16)];
  rows[2] ^= 0x11;  // corrupt two columns in one row
  rows[5] ^= 0x03;
  for (auto _ : state) {
    const auto cands = bec.decode_block(rows);
    benchmark::DoNotOptimize(cands.data());
  }
}
BENCHMARK(BM_BecDecodeBlock)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_BecDecodePayload(benchmark::State& state) {
  lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  Rng rng(4);
  std::vector<std::uint8_t> app(14, 0x5A);
  const rx::FrameCodec codec(
      {p, /*use_bec=*/true, rx::ImplicitHeader{16, 4}, lora::Coding::kPaper});
  auto symbols = codec.encode_shifts(app);
  symbols[1] ^= 0x5;
  symbols[9] ^= 0x81;
  const lora::Header h = *codec.implicit_header();
  for (auto _ : state) {
    Rng r(5);
    const auto result = codec.decode_frame(symbols, h, r, nullptr);
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_BecDecodePayload);

void BM_ThriveAssign(benchmark::State& state) {
  // Two colliding packets, one checking point.
  const int m = static_cast<int>(state.range(0));
  lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
  Rng rng(6);
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(14, 0x77);
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  const std::size_t pkt_len = mod.packet_samples(symbols.size());
  IqBuffer trace(pkt_len + static_cast<std::size_t>((3 + m) * static_cast<int>(p.sps())),
                 cfloat{0.0f, 0.0f});
  std::vector<rx::PacketContext> ctxs;
  for (int i = 0; i < m; ++i) {
    lora::WaveformOptions w;
    w.cfo_hz = -3000.0 + 1100.0 * i;
    const IqBuffer pkt = mod.synthesize_shifts(symbols, w);
    const double t0 = (2.0 + 0.37 * i) * static_cast<double>(p.sps());
    for (std::size_t s = 0;
         s < pkt.size() && static_cast<std::size_t>(t0) + s < trace.size(); ++s) {
      trace[static_cast<std::size_t>(t0) + s] += pkt[s];
    }
    ctxs.emplace_back(p, rx::DetectedPacket{t0, p.cfo_hz_to_cycles(w.cfo_hz), 0, 12});
    ctxs.back().n_data_symbols = static_cast<int>(symbols.size());
  }
  rx::SigCalc sig(p, {trace});
  std::vector<rx::PeakHistory> hist(ctxs.size());
  rx::Thrive thrive(p);

  const double c = 20.0 * static_cast<double>(p.sps());
  std::vector<rx::ActiveSymbol> act;
  for (int i = 0; i < m; ++i) {
    const auto d = ctxs[static_cast<std::size_t>(i)].data_symbol_at(
        c, ctxs[static_cast<std::size_t>(i)].n_data_symbols);
    if (d) {
      act.push_back({i, *d, ctxs[static_cast<std::size_t>(i)].data_symbol_start(*d)});
    }
  }
  std::vector<std::vector<double>> masks(act.size());
  for (auto _ : state) {
    rx::AssignInput in;
    in.symbols = act;
    in.contexts = ctxs;
    in.masked_bins = masks;
    in.sig = &sig;
    in.history = hist;
    const auto res = thrive.assign(in);
    benchmark::DoNotOptimize(res.data());
  }
}
BENCHMARK(BM_ThriveAssign)->Arg(2)->Arg(4)->Arg(8);

/// Console reporter that also emits one machine-greppable
/// "BENCH <name> <real_ns>" line per measurement, so CI (and humans) can
/// summarize a run with `grep '^BENCH '` — no JSON tooling required. The
/// full-fidelity record still goes to --benchmark_out (JSON).
class GreppableReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    benchmark::ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.error_occurred) continue;
      const double ns =
          run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
      std::printf("BENCH %s %.0f\n", run.benchmark_name().c_str(), ns);
    }
  }
};

/// Registers one BM_FftBackend_<name>/<size> benchmark per backend the
/// build and this CPU provide, each invoking that backend directly
/// (independent of the active selection) so one run compares them all.
void register_backend_benches() {
  for (const dsp::FftBackend* be : dsp::fft_backends()) {
    for (const std::size_t n : {256u, 1024u, 2048u, 8192u, 32768u}) {
      const std::string name =
          "BM_FftBackend_" + std::string(be->name()) + "/" + std::to_string(n);
      benchmark::RegisterBenchmark(
          name.c_str(), [be, n](benchmark::State& state) {
            Rng rng(1);
            std::vector<cfloat> buf(n);
            for (auto& v : buf) v = rng.complex_normal();
            const auto& plan = dsp::fft_plan(n);
            for (auto _ : state) {
              be->transform(plan, buf.data(), /*inverse=*/false);
              benchmark::DoNotOptimize(buf.data());
            }
            state.SetItemsProcessed(
                static_cast<std::int64_t>(state.iterations()));
          });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --fft-backend NAME (consumed before benchmark::Initialize) selects
  // the backend the kernel/pipeline benchmarks dispatch to; the
  // BM_FftBackend_* comparisons always cover every available backend.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fft-backend") == 0 && i + 1 < argc) {
      if (!dsp::set_fft_backend(argv[i + 1])) {
        std::fprintf(stderr,
                     "bench_micro_components: unknown fft backend '%s' "
                     "(valid: %s)\n",
                     argv[i + 1], dsp::fft_backend_names().c_str());
        return 2;
      }
      for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      --i;
    }
  }
  register_backend_benches();
  // Initialize consumes the standard flags, including --benchmark_out /
  // --benchmark_out_format; RunSpecifiedBenchmarks builds the file
  // reporter from them while our display reporter adds the BENCH lines.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The selection lands in the JSON context and in one greppable line, so
  // BENCH numbers are never compared across backends by accident.
  benchmark::AddCustomContext("fft_backend", dsp::active_fft_backend().name());
  std::printf("BENCH_CONTEXT fft_backend %s\n",
              dsp::active_fft_backend().name());
  GreppableReporter display;
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  return 0;
}
