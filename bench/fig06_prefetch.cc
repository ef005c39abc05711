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
#include <vector>

#include "bench/sweep_runner.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/trace/counters.h"

namespace {

using namespace pmemsim;

struct PrefetcherConfig {
  const char* name;
  bool adjacent;
  bool dcu;
  bool stream;
};

struct Ratios {
  double pm = 0;
  double imc = 0;
};

Ratios MeasureRatios(Generation gen, uint64_t wss, const PrefetcherConfig& pf,
                     uint64_t max_visits, uint32_t repeats) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, pf.adjacent, pf.dcu, pf.stream);

  const PmRegion region = system->AllocatePm(wss, kXPLineSize);
  const uint64_t blocks = wss / kXPLineSize;

  std::vector<uint64_t> order(blocks);
  for (uint64_t i = 0; i < blocks; ++i) {
    order[i] = i;
  }
  Rng rng(0xF16 + wss);

  uint64_t visited = 0;
  auto visit_blocks = [&](uint64_t visits) {
    uint64_t done = 0;
    while (done < visits) {
      rng.Shuffle(order);
      for (const uint64_t b : order) {
        const Addr base = region.base + b * kXPLineSize;
        for (uint32_t r = 0; r < repeats; ++r) {
          for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
            ctx.LoadLine(base + cl * kCacheLineSize);
          }
        }
        // Flush the block so the next visit must leave the CPU caches.
        for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
          ctx.Clflushopt(base + cl * kCacheLineSize);
        }
        ctx.Sfence();
        if (++done >= visits) {
          break;
        }
      }
    }
    visited += done;
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
  pmemsim_bench::Sweep sweep(argc, argv, "fig06_prefetch",
                             " [--gen=g1|g2|both] [--max_mb=1024] [--max_visits=60000] "
                             "[--repeats=4]");
  const auto gens = sweep.flags().GetGenerations("both");
  const uint64_t max_mb = sweep.flags().GetU64("max_mb", 1024);
  const uint64_t max_visits = sweep.flags().GetU64("max_visits", 60000);
  const uint32_t repeats = static_cast<uint32_t>(sweep.flags().GetU64("repeats", 4));
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 6", "media & iMC read ratios under CPU prefetchers",
                  {"gen", "prefetcher", "wss_kb", "pm_ratio", "imc_ratio"});

  static const PrefetcherConfig kConfigs[] = {
      {"none", false, false, false},
      {"hw-stream", false, false, true},
      {"adjacent", true, false, false},
      {"dcu", false, true, false},
  };
  for (const auto& g : gens) {
    for (const PrefetcherConfig& pf : kConfigs) {
      for (uint64_t kb = 4; kb <= max_mb * 1024; kb *= 4) {
        const std::string label =
            std::string(g.name) + "/" + pf.name + "/" + std::to_string(kb) + "kb";
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          const Ratios r = MeasureRatios(g.gen, KiB(kb), pf, max_visits, repeats);
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
