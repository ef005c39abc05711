#include "bench/buffer_probes.h"

#include <vector>

#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/trace/counters.h"

namespace pmemsim_bench {

using namespace pmemsim;

double MeasureReadAmplification(const PlatformConfig& platform, uint64_t wss_bytes,
                                uint32_t cpx) {
  System system(platform, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system.CreateThread();
  SetPrefetchers(ctx, false, false, false);

  const PmRegion region = system.AllocatePm(wss_bytes, kXPLineSize);
  const uint64_t xplines = wss_bytes / kXPLineSize;
  auto run_pattern = [&](int passes) {
    for (int p = 0; p < passes; ++p) {
      for (uint32_t cl = 0; cl < cpx; ++cl) {
        for (uint64_t xp = 0; xp < xplines; ++xp) {
          const Addr addr = region.base + xp * kXPLineSize + cl * kCacheLineSize;
          ctx.LoadLine(addr);
          ctx.Clflushopt(addr);
        }
        ctx.Sfence();
      }
    }
  };

  run_pattern(3);
  CounterDelta delta(&system.counters());
  run_pattern(8);
  return delta.Delta().ReadAmplification();
}

double MeasureWriteAmplification(const PlatformConfig& platform, uint64_t wss_bytes,
                                 uint32_t lines_per_xpline, bool random) {
  System system(platform, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system.CreateThread();
  SetPrefetchers(ctx, false, false, false);

  const PmRegion region = system.AllocatePm(wss_bytes, kXPLineSize);
  const uint64_t xplines = wss_bytes / kXPLineSize;
  std::vector<uint64_t> order(xplines);
  for (uint64_t i = 0; i < xplines; ++i) {
    order[i] = i;
  }
  if (random) {
    Rng rng(0x5EED + wss_bytes);
    rng.Shuffle(order);
  }

  auto run_pass = [&](int passes) {
    for (int p = 0; p < passes; ++p) {
      for (const uint64_t xp : order) {
        const Addr base = region.base + xp * kXPLineSize;
        for (uint32_t cl = 0; cl < lines_per_xpline; ++cl) {
          ctx.NtStore64(base + cl * kCacheLineSize, p);
        }
      }
      ctx.Sfence();
    }
  };

  run_pass(3);
  CounterDelta delta(&system.counters());
  run_pass(8);
  return delta.Delta().WriteAmplification();
}

Cycles RunRandomPartialWrites(System& system, uint64_t wss_bytes,
                              const std::function<void(ThreadContext&)>& between_phases) {
  ThreadContext& ctx = system.CreateThread();
  SetPrefetchers(ctx, false, false, false);

  const PmRegion region = system.AllocatePm(wss_bytes, kXPLineSize);
  const uint64_t xplines = wss_bytes / kXPLineSize;
  Rng rng(0xBEEF + wss_bytes);
  auto run_writes = [&](uint64_t writes) {
    for (uint64_t i = 0; i < writes; ++i) {
      const uint64_t xp = rng.NextBelow(xplines);
      const uint64_t cl = rng.NextBelow(kLinesPerXPLine);
      ctx.NtStore64(region.base + xp * kXPLineSize + cl * kCacheLineSize, i);
    }
    ctx.Sfence();
  };

  run_writes(4 * xplines + 512);
  between_phases(ctx);
  run_writes(16 * xplines + 2048);
  return ctx.clock();
}

}  // namespace pmemsim_bench
