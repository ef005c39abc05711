// Figure 7 (paper §3.5, Algorithm 1): read-after-persist (RAP) latency vs RAP
// distance, on PM and DRAM, from the local and the remote NUMA node, for
// clwb+mfence, clwb+sfence, and nt-store+mfence.
//
// Expected shapes (paper):
//  * G1 PM: clwb+mfence and nt-store+mfence peak ~2,500 cycles (3,200 remote)
//    at distance 0, decaying hyperbolically to the buffer-hit level;
//    clwb+sfence is low at distance <= 1 (unordered loads still hit the
//    cache), jumps to ~800/1,000, then converges down.
//  * G2 PM: clwb curves flatten to DRAM-like levels (clwb retains the line);
//    nt-store still shows the full RAP.
//  * DRAM: the same shapes compressed (~700-cycle peak).

#include <string>
#include <vector>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/core/platform.h"

namespace {

using namespace pmemsim;

double MeasureRap(Generation gen, bool dram, bool remote, PersistMode mode, uint64_t distance,
                  uint64_t wss = KiB(4)) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  std::vector<pmemsim_bench::AccessWorker> thread(1);
  thread[0].ctx = &system->CreateThread(remote ? 1 : 0);
  SetPrefetchers(*thread[0].ctx, false, false, false);

  // Persist the lines in address order, each followed by a load of the line
  // `distance` back.
  const PmRegion region =
      dram ? system->AllocateDram(wss, kXPLineSize) : system->AllocatePm(wss, kXPLineSize);
  const pmemsim_bench::AccessKernel kernel{
      {pmemsim_bench::AccessOp::kRap, pmemsim_bench::AccessPattern::kSeq, mode, distance},
      region};
  const uint64_t lines = wss / kCacheLineSize;
  const Cycles start = pmemsim_bench::RunWorkers(thread, {3 * lines}, kernel);  // warm up
  const Cycles total = pmemsim_bench::RunWorkers(thread, {6 * lines}, kernel) - start;
  return static_cast<double>(total) / static_cast<double>(6 * lines);
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig07_rap");
  const auto gens = sweep.flags().GetGenerations("both");
  const std::string panel = sweep.flags().GetChoice(
      "panel", "all", {"pm-local", "pm-remote", "dram-local", "dram-remote", "all"});
  const uint64_t max_distance = sweep.flags().GetU64("max_distance", 40);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 7", "read-after-persist latency vs distance (Algorithm 1)",
                  {"gen", "device", "locality", "mode", "distance", "cycles"});
  for (const auto& g : gens) {
    for (const bool dram : {false, true}) {
      for (const bool remote : {false, true}) {
        const std::string key =
            std::string(dram ? "dram" : "pm") + (remote ? "-remote" : "-local");
        if (panel != "all" && panel != key) {
          continue;
        }
        for (const PersistMode mode :
             {PersistMode::kClwbMfence, PersistMode::kClwbSfence, PersistMode::kNtStoreMfence}) {
          if (dram && mode == PersistMode::kNtStoreMfence) {
            continue;  // the paper's DRAM panels plot only the clwb variants
          }
          for (uint64_t d = 0; d <= max_distance; ++d) {
            const std::string label = std::string(g.name) + "/" + key + "/" +
                                      PersistModeName(mode) + "/d" + std::to_string(d);
            runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
              const double cycles = MeasureRap(g.gen, dram, remote, mode, d);
              point.Emit(pmemsim_bench::Row()
                             .Set("gen", g.name)
                             .Set("device", dram ? "DRAM" : "PM")
                             .Set("locality", remote ? "remote" : "local")
                             .Set("mode", PersistModeName(mode))
                             .Set("distance", d)
                             .Set("cycles", cycles, 1));
            });
          }
        }
      }
    }
  }
  return sweep.Finish();
}
