// Figure 6 (paper §3.4): data loaded from the 3D-Xpoint media and through the
// iMC relative to program-demanded data, as each CPU prefetcher is enabled in
// isolation. Random 256 B access blocks; within a block all four cachelines
// are read sequentially (repeatedly, to train prefetchers), then the block is
// flushed from the CPU caches.
//
// Expected shapes (paper):
//  * no prefetch: both ratios ~1 at every WSS (no on-DIMM prefetcher exists);
//  * with a prefetcher: three regions — ~1 while the WSS fits the read
//    buffer; the PM ratio rises while the iMC ratio stays ~1 while the WSS
//    fits the LLC; both rise beyond the LLC, with the PM ratio far higher
//    (a mispredicted cacheline costs 64 B at the iMC but 256 B at the media).

#include <string>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig06_prefetch");
  const auto gens = sweep.flags().GetGenerations("both");
  const uint64_t max_mb = sweep.flags().GetU64("max_mb", 1024);
  const uint64_t max_visits = sweep.flags().GetU64("max_visits", 60000);
  const uint32_t repeats = sweep.flags().GetU32("repeats", 4);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 6", "media & iMC read ratios under CPU prefetchers",
                  {"gen", "prefetcher", "wss_kb", "pm_ratio", "imc_ratio"});

  // Each CPU prefetcher on in isolation.
  struct Prefetcher {
    const char* name;
    pmemsim_bench::BlockVisitProbe probe;
  };
  static const Prefetcher kConfigs[] = {
      {"none", {.seed = 0xF16}},
      {"hw-stream", {.seed = 0xF16, .stream = true}},
      {"adjacent", {.seed = 0xF16, .adjacent = true}},
      {"dcu", {.seed = 0xF16, .dcu = true}},
  };
  for (const auto& g : gens) {
    for (const Prefetcher& pf : kConfigs) {
      for (uint64_t kb = 4; kb <= max_mb * 1024; kb *= 4) {
        const std::string label =
            std::string(g.name) + "/" + pf.name + "/" + std::to_string(kb) + "kb";
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          const pmemsim_bench::ReadRatios r = pmemsim_bench::MeasureBlockReadRatios(
              g.gen, pmemsim::KiB(kb), pf.probe, max_visits, repeats);
          point.Emit(pmemsim_bench::Row()
                         .Set("gen", g.name)
                         .Set("prefetcher", pf.name)
                         .Set("wss_kb", kb)
                         .Set("pm_ratio", r.pm, 3)
                         .Set("imc_ratio", r.imc, 3));
        });
      }
    }
  }
  return sweep.Finish();
}
