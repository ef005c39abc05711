#include "bench/buffer_probes.h"

#include <algorithm>
#include <numeric>
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

ReadRatios MeasureBlockReadRatios(Generation gen, uint64_t wss_bytes,
                                  const BlockVisitProbe& probe, uint64_t max_visits,
                                  uint32_t repeats) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, probe.adjacent, probe.dcu, probe.stream);

  const PmRegion region = system->AllocatePm(wss_bytes, kXPLineSize);
  const PmRegion bounce = system->AllocateDram(kXPLineSize, kXPLineSize);
  const uint64_t blocks = wss_bytes / kXPLineSize;
  std::vector<uint64_t> order(blocks);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(probe.seed + wss_bytes);

  auto visit_blocks = [&](uint64_t visits) {
    uint64_t done = 0;
    while (done < visits) {
      rng.Shuffle(order);
      for (const uint64_t b : order) {
        const Addr base = region.base + b * kXPLineSize;
        Addr loaded = base;
        if (probe.redirect) {
          ctx.StreamCopyXPLine(base, bounce.base);
          loaded = bounce.base;
        }
        for (uint32_t r = 0; r < repeats; ++r) {
          for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
            ctx.LoadLine(loaded + cl * kCacheLineSize);
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

double MeasureChaseList(const PlatformConfig& platform, uint64_t wss_bytes, bool sequential,
                        uint64_t seed, uint64_t warm, uint64_t measured, const ChasePass& pass) {
  System system(platform, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system.CreateThread();
  ChaseList list(&system, system.AllocatePm(wss_bytes, kXPLineSize), sequential, seed);
  pass(ctx, list, warm);
  const Cycles cycles = pass(ctx, list, measured);
  return static_cast<double>(cycles) / static_cast<double>(measured);
}

void AccessKernel::operator()(AccessWorker& w) const {
  ThreadContext& ctx = *w.ctx;
  const uint64_t lines = region.size / stride;
  const uint64_t index =
      spec.pattern == AccessPattern::kSeq ? (w.pos++ % lines) : w.rng.NextBelow(lines);
  const Addr addr = region.At(index * stride);
  const Cycles t0 = ctx.clock();
  switch (spec.op) {
    case AccessOp::kLoadLine:
      ctx.LoadLine(addr);
      break;
    case AccessOp::kStore:
      ctx.Store64(addr, w.done);
      break;
    case AccessOp::kPersist:
      PersistentStore64(ctx, addr, w.done, spec.mode);
      break;
    case AccessOp::kRap:
      PersistentStore64(ctx, addr, w.done, spec.mode);
      ctx.Load64(region.At((index + lines - spec.distance % lines) % lines * stride));
      break;
    case AccessOp::kStreamCopy:
      ctx.StreamCopyXPLine(XPLineBase(addr), bounce);
      break;
  }
  w.latency.Add(ctx.clock() - t0);
}

std::vector<uint64_t> SplitOps(uint64_t ops, uint32_t threads) {
  std::vector<uint64_t> quotas(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    quotas[t] = ops / threads + (t < ops % threads ? 1 : 0);
  }
  return quotas;
}

}  // namespace pmemsim_bench
