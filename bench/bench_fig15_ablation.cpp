// Fig. 15: component ablation at the highest load — TnB (Thrive+BEC),
// Thrive (no BEC), Sibling (no history cost), vs CIC.
//
// The six (deployment, SF) cells are independent and fan out across
// `--jobs N` / TNB_JOBS workers; printed numbers are identical for every
// jobs value.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "cli.hpp"

using namespace tnb;

int main(int argc, char** argv) {
  int jobs = common::default_jobs();
  const cli::Parser cli("bench_fig15_ablation", {cli::jobs(jobs)});
  if (const auto status = cli.run(argc, argv)) return *status;
  bench::print_header("Fig. 15: evaluating the components of TnB",
                      "paper Fig. 15");
  const std::vector<base::Scheme> schemes = {
      base::Scheme::kTnB,  base::Scheme::kThrive, base::Scheme::kSibling,
      base::Scheme::kCic,  base::Scheme::kCoRa,   base::Scheme::kCoRaTnB};
  const double load = bench::load_sweep().back();
  const std::vector<sim::Deployment> deps = {sim::indoor_deployment(),
                                             sim::outdoor1_deployment(),
                                             sim::outdoor2_deployment()};
  const std::vector<unsigned> sfs = {8u, 10u};

  struct CellResult {
    std::size_t transmitted = 0;
    std::vector<std::size_t> decoded;  ///< per scheme
  };
  const std::size_t n_cells = deps.size() * sfs.size();
  std::vector<CellResult> results(n_cells);
  bench::ObsScope obs;  // receivers below record stage timings into it
  const tnb::obs::HistogramRef cell_seconds = obs.cell_seconds();
  const bench::WallTimer total;
  common::parallel_for(n_cells, jobs, [&](std::size_t i) {
    const sim::Deployment& dep = deps[i / sfs.size()];
    const unsigned sf = sfs[i % sfs.size()];
    const bench::WallTimer timer;
    const lora::Params p{.sf = sf, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
    const sim::Trace trace =
        bench::make_deployment_trace(p, dep, load, 1500 + sf);
    const auto detections = bench::detect_once(p, trace);
    CellResult& r = results[i];
    r.transmitted = trace.packets.size();
    for (base::Scheme s : schemes) {
      r.decoded.push_back(
          bench::run_scheme(s, p, trace, false, &detections)
              .eval.decoded_unique);
    }
    cell_seconds.observe(timer.seconds());
  });
  const double wall = total.seconds();

  double tnb_sum = 0.0, thrive_sum = 0.0;
  for (std::size_t i = 0; i < n_cells; ++i) {
    const CellResult& r = results[i];
    std::printf("%-11s SF %-3u (%zu tx):", deps[i / sfs.size()].name.c_str(),
                sfs[i % sfs.size()], r.transmitted);
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      std::printf("  %s=%zu", base::scheme_name(schemes[si]).c_str(),
                  r.decoded[si]);
      if (schemes[si] == base::Scheme::kTnB) {
        tnb_sum += static_cast<double>(r.decoded[si]);
      }
      if (schemes[si] == base::Scheme::kThrive) {
        thrive_sum += static_cast<double>(r.decoded[si]);
      }
    }
    std::printf("\n");
  }
  std::printf("\nTnB/Thrive ratio (BEC's contribution): %.2fx "
              "(paper: median 1.31x)\n",
              thrive_sum > 0 ? tnb_sum / thrive_sum : 0.0);
  std::printf("(paper: Sibling underperforms in some cases, showing the "
              "value of the peak history)\n");
  bench::print_obs_summary(obs.registry().snapshot(), n_cells, jobs, wall);
  return 0;
}
