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

#include "bench/sweep_runner.h"
#include "src/core/platform.h"

namespace {

using namespace pmemsim;

enum class RapMode { kClwbMfence, kClwbSfence, kNtStoreMfence };

const char* ModeName(RapMode m) {
  switch (m) {
    case RapMode::kClwbMfence:
      return "clwb+mfence";
    case RapMode::kClwbSfence:
      return "clwb+sfence";
    case RapMode::kNtStoreMfence:
      return "nt-store+mfence";
  }
  return "?";
}

double MeasureRap(Generation gen, bool dram, bool remote, RapMode mode, uint64_t distance,
                  uint64_t wss = KiB(4)) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread(remote ? 1 : 0);
  SetPrefetchers(ctx, false, false, false);

  const PmRegion region =
      dram ? system->AllocateDram(wss, kXPLineSize) : system->AllocatePm(wss, kXPLineSize);
  const uint64_t lines = wss / kCacheLineSize;

  auto run = [&](uint64_t iterations) -> Cycles {
    const Cycles start = ctx.clock();
    uint64_t offset = 0;
    for (uint64_t i = 0; i < iterations; ++i) {
      const Addr addr = region.base + offset;
      if (mode == RapMode::kNtStoreMfence) {
        ctx.NtStore64(addr, i);
        ctx.Mfence();
      } else {
        ctx.Store64(addr, i);
        ctx.Clwb(addr);
        if (mode == RapMode::kClwbMfence) {
          ctx.Mfence();
        } else {
          ctx.Sfence();
        }
      }
      // Read a previously persisted cacheline `distance` lines back.
      const uint64_t back = (offset + wss - distance * kCacheLineSize) % wss;
      (void)ctx.Load64(region.base + back);
      offset = (offset + kCacheLineSize) % wss;
    }
    return ctx.clock() - start;
  };

  run(3 * lines);  // warm up: all lines persisted at least once
  const Cycles total = run(6 * lines);
  return static_cast<double>(total) / static_cast<double>(6 * lines);
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(
      argc, argv, "fig07_rap",
      " [--gen=g1|g2|both] [--max_distance=40] [--panel=pm-local|pm-remote|"
      "dram-local|dram-remote|all]");
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
        for (const RapMode mode :
             {RapMode::kClwbMfence, RapMode::kClwbSfence, RapMode::kNtStoreMfence}) {
          if (dram && mode == RapMode::kNtStoreMfence) {
            continue;  // the paper's DRAM panels plot only the clwb variants
          }
          for (uint64_t d = 0; d <= max_distance; ++d) {
            const std::string label = std::string(g.name) + "/" + key + "/" + ModeName(mode) +
                                      "/d" + std::to_string(d);
            runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
              const double cycles = MeasureRap(g.gen, dram, remote, mode, d);
              point.Emit(pmemsim_bench::Row()
                             .Set("gen", g.name)
                             .Set("device", dram ? "DRAM" : "PM")
                             .Set("locality", remote ? "remote" : "local")
                             .Set("mode", ModeName(mode))
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
