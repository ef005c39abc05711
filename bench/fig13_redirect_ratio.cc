// Figure 13 (paper §4.3): the read-ratio effect of redirecting XPLine-aligned
// accesses through AVX streaming copies into DRAM bounce buffers (Algorithm
// 2). With default prefetching, random XPLine-sized accesses misprefetch
// across block boundaries and the media reads up to ~2x the demanded data;
// the redirect path never trains the prefetchers and brings the ratio back
// to ~1.

#include <string>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig13_redirect_ratio");
  const auto gens = sweep.flags().GetGenerations("both");
  const uint64_t max_mb = sweep.flags().GetU64("max_mb", 1024);
  const uint64_t max_visits = sweep.flags().GetU64("max_visits", 60000);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 13", "misprefetch reduction via AVX redirect (Algorithm 2)",
                  {"gen", "variant", "wss_kb", "pm_ratio", "imc_ratio"});
  for (const auto& g : gens) {
    for (const bool optimized : {false, true}) {
      for (uint64_t kb = 4; kb <= max_mb * 1024; kb *= 4) {
        const char* variant = optimized ? "optimized" : "prefetching";
        const std::string label =
            std::string(g.name) + "/" + variant + "/" + std::to_string(kb) + "kb";
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          // Default platform prefetching: all three prefetchers on.
          const pmemsim_bench::BlockVisitProbe probe = {
              .seed = 0xF13, .adjacent = true, .dcu = true, .stream = true, .redirect = optimized};
          const pmemsim_bench::ReadRatios r = pmemsim_bench::MeasureBlockReadRatios(
              g.gen, pmemsim::KiB(kb), probe, max_visits, /*repeats=*/4);
          point.Emit(pmemsim_bench::Row()
                         .Set("gen", g.name)
                         .Set("variant", variant)
                         .Set("wss_kb", kb)
                         .Set("pm_ratio", r.pm, 3)
                         .Set("imc_ratio", r.imc, 3));
        });
      }
    }
  }
  return sweep.Finish();
}
