// Fig. 17: packet receiving ratio across SNR ranges — extended from the
// paper's TnB-vs-CIC pair to every scheme in base::all_schemes(), so the
// related-work peers (CoRa, LZn-Thrive) and the hybrids line up in the
// same SNR buckets. Cells fan out over --jobs (results in pre-sized
// slots: identical output for every jobs value).
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "cli.hpp"

using namespace tnb;

int main(int argc, char** argv) {
  int jobs = common::default_jobs();
  const cli::Parser cli("bench_fig17_prr_snr", {cli::jobs(jobs)});
  if (const auto status = cli.run(argc, argv)) return *status;
  bench::print_header("Fig. 17: PRR at various SNR ranges, all schemes",
                      "paper Fig. 17");
  const double load = bench::load_sweep().back();
  const double bucket = 10.0;
  const std::vector<base::Scheme> schemes = base::all_schemes();

  for (unsigned sf : {8u, 10u}) {
    // Per scheme: (bucket edge) -> (sum, count).
    std::vector<std::map<double, std::pair<double, int>>> buckets(
        schemes.size());
    for (const sim::Deployment& dep :
         {sim::indoor_deployment(), sim::outdoor1_deployment(),
          sim::outdoor2_deployment()}) {
      lora::Params p{.sf = sf, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
      const sim::Trace trace =
          bench::make_deployment_trace(p, dep, load, 1700 + sf);
      std::vector<std::vector<std::pair<double, double>>> per_scheme(
          schemes.size());
      common::parallel_for(schemes.size(), jobs, [&](std::size_t i) {
        rx::Receiver receiver = base::make_receiver(schemes[i], p);
        Rng rng(1);
        const auto pkts = receiver.decode(trace.iq, rng);
        per_scheme[i] = sim::prr_by_snr(trace, pkts, bucket);
      });
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        for (const auto& [edge, prr] : per_scheme[i]) {
          buckets[i][edge].first += prr;
          buckets[i][edge].second += 1;
        }
      }
    }

    // Every bucket edge any scheme produced, in order.
    std::map<double, int> edges;
    for (const auto& b : buckets) {
      for (const auto& [edge, sum_n] : b) edges[edge] = 1;
    }
    std::printf("\nSF %u:\n%-16s", sf, "SNR range (dB)");
    for (const base::Scheme s : schemes) {
      std::printf(" %-12s", base::scheme_name(s).c_str());
    }
    std::printf("\n");
    for (const auto& [edge, unused] : edges) {
      std::printf("[%4.0f, %4.0f)    ", edge, edge + bucket);
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        const auto it = buckets[i].find(edge);
        const double prr =
            it == buckets[i].end() || it->second.second == 0
                ? 0.0
                : it->second.first / it->second.second;
        std::printf(" %-12.2f", prr);
      }
      std::printf("\n");
    }
  }
  std::printf("\n(paper: PRR rises with SNR; TnB above CIC in nearly every "
              "range)\n");
  return 0;
}
