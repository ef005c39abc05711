// Figure 3 (paper §3.2): write amplification vs working set size for
// nt-store write patterns updating 25/50/75/100% of each XPLine.
//
// On G1: partial writes are absorbed (WA = 0) until the ~12 KB usable
// write-buffer capacity, then WA climbs toward the theoretical 4/2/1.33;
// full writes are written back periodically, so WA ≈ 1 from small WSS.
// On G2 all four curves rise gracefully past a >12 KB knee.

#include <string>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"

using namespace pmemsim;

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(
      argc, argv, "fig03_write_amplification",
      "The paper notes WA is independent of the cross-XPLine pattern; --random verifies.");
  const auto gens = sweep.flags().GetGenerations("both");
  const uint64_t max_kb = sweep.flags().GetU64("max_kb", 32);
  const bool random = sweep.flags().Has("random");
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 3", "write amplification vs WSS (nt-store partial/full)",
                  {"gen", "wss_kb", "write_pct", "write_amplification"});
  for (const auto& g : gens) {
    for (uint64_t kb = 1; kb <= max_kb; ++kb) {
      for (uint32_t lines = 1; lines <= 4; ++lines) {
        const std::string label = std::string(g.name) + "/" + std::to_string(kb) + "kb/" +
                                  std::to_string(lines * 25) + "pct";
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          const double wa = pmemsim_bench::MeasureWriteAmplification(PlatformFor(g.gen), KiB(kb),
                                                                     lines, random);
          point.Emit(pmemsim_bench::Row()
                         .Set("gen", g.name)
                         .Set("wss_kb", kb)
                         .Set("write_pct", lines * 25)
                         .Set("write_amplification", wa, 3));
        });
      }
    }
  }
  return sweep.Finish();
}
