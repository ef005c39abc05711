// Figure 2 (paper §3.1): read amplification vs working set size for strided
// reads touching 1..4 cachelines per XPLine (CpX). Demonstrates the 16 KB
// (G1) / 22 KB (G2) on-DIMM read buffer with FIFO eviction and exclusive
// delivery: RA = 4/CpX while the WSS fits, then a sharp jump to 4.

#include <string>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"

using namespace pmemsim;

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig02_read_buffer");
  const auto gens = sweep.flags().GetGenerations("both");
  const uint64_t max_kb = sweep.flags().GetU64("max_kb", 36);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 2", "read amplification vs WSS (strided reads, CpX=1..4)",
                  {"gen", "wss_kb", "cpx", "read_amplification"});
  for (const auto& g : gens) {
    for (uint64_t kb = 1; kb <= max_kb; ++kb) {
      for (uint32_t cpx = 1; cpx <= 4; ++cpx) {
        const std::string label =
            std::string(g.name) + "/" + std::to_string(kb) + "kb/cpx" + std::to_string(cpx);
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          // Single non-interleaved DIMM, as in the paper's buffer probes.
          const double ra =
              pmemsim_bench::MeasureReadAmplification(PlatformFor(g.gen), KiB(kb), cpx);
          point.Emit(pmemsim_bench::Row()
                         .Set("gen", g.name)
                         .Set("wss_kb", kb)
                         .Set("cpx", cpx)
                         .Set("read_amplification", ra, 3));
        });
      }
    }
  }
  return sweep.Finish();
}
