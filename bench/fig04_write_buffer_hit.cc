// Figure 4 (paper §3.2): write-buffer hit ratio vs working set size under
// random partial nt-stores. G1's batch eviction produces a sudden drop at
// 12 KB; G2's single-victim random eviction decays gracefully past 16 KB.

#include <optional>
#include <string>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/core/platform.h"
#include "src/trace/counters.h"

using namespace pmemsim;

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig04_write_buffer_hit");
  const auto gens = sweep.flags().GetGenerations("both");
  const uint64_t max_kb = sweep.flags().GetU64("max_kb", 32);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 4", "write-buffer hit ratio vs WSS (random partial writes)",
                  {"gen", "wss_kb", "hit_ratio"});
  for (const auto& g : gens) {
    for (uint64_t kb = 2; kb <= max_kb; ++kb) {
      const std::string label = std::string(g.name) + "/" + std::to_string(kb) + "kb";
      runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
        auto system = MakeSystem(g.gen, /*optane_dimm_count=*/1);
        std::optional<CounterDelta> measured;
        pmemsim_bench::RunRandomPartialWrites(*system, KiB(kb), [&](ThreadContext&) {
          measured.emplace(&system->counters());
        });
        const double ratio = measured->Delta().WriteBufferHitRatio();
        point.Emit(pmemsim_bench::Row()
                       .Set("gen", g.name)
                       .Set("wss_kb", kb)
                       .Set("hit_ratio", ratio, 3));
      });
    }
  }
  return sweep.Finish();
}
