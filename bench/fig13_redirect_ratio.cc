// Figure 13 (paper §4.3): the read-ratio effect of redirecting XPLine-aligned
// accesses through AVX streaming copies into DRAM bounce buffers (Algorithm
// 2). With default prefetching, random XPLine-sized accesses misprefetch
// across block boundaries and the media reads up to ~2x the demanded data;
// the redirect path never trains the prefetchers and brings the ratio back
// to ~1.

#include <string>
#include <vector>

#include "bench/sweep_runner.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/trace/counters.h"

namespace {

using namespace pmemsim;

struct Ratios {
  double pm = 0;
  double imc = 0;
};

Ratios MeasureRedirect(Generation gen, uint64_t wss, bool optimized, uint64_t max_visits,
                       uint32_t repeats) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  // Default platform prefetching: all three prefetchers on.
  SetPrefetchers(ctx, true, true, true);

  const PmRegion region = system->AllocatePm(wss, kXPLineSize);
  const PmRegion bounce = system->AllocateDram(kXPLineSize, kXPLineSize);
  const uint64_t blocks = wss / kXPLineSize;

  std::vector<uint64_t> order(blocks);
  for (uint64_t i = 0; i < blocks; ++i) {
    order[i] = i;
  }
  Rng rng(0xF13 + wss);

  auto visit_blocks = [&](uint64_t visits) {
    uint64_t done = 0;
    while (done < visits) {
      rng.Shuffle(order);
      for (const uint64_t b : order) {
        const Addr base = region.base + b * kXPLineSize;
        if (optimized) {
          // Algorithm 2: one streaming copy, then operate on the DRAM buffer.
          ctx.StreamCopyXPLine(base, bounce.base);
          for (uint32_t r = 0; r < repeats; ++r) {
            for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
              ctx.LoadLine(bounce.base + cl * kCacheLineSize);
            }
          }
          for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
            ctx.Clflushopt(base + cl * kCacheLineSize);
          }
        } else {
          for (uint32_t r = 0; r < repeats; ++r) {
            for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
              ctx.LoadLine(base + cl * kCacheLineSize);
            }
          }
          for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
            ctx.Clflushopt(base + cl * kCacheLineSize);
          }
        }
        ctx.Sfence();
        if (++done >= visits) {
          break;
        }
      }
    }
  };

  const uint64_t warm = std::max<uint64_t>(std::min<uint64_t>(blocks, max_visits), 4096);
  const uint64_t measured = std::max<uint64_t>(std::min<uint64_t>(2 * blocks, max_visits), 8192);
  visit_blocks(warm);
  CounterDelta delta(&system->counters());
  visit_blocks(measured);
  const Counters d = delta.Delta();
  const double demand = static_cast<double>(measured) * kXPLineSize;
  return {static_cast<double>(d.media_read_bytes) / demand,
          static_cast<double>(d.imc_read_bytes) / demand};
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig13_redirect_ratio",
                             " [--gen=g1|g2|both] [--max_mb=1024] [--max_visits=60000]");
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
          const Ratios r = MeasureRedirect(g.gen, KiB(kb), optimized, max_visits, /*repeats=*/4);
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
