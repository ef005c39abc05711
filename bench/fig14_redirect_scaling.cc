// Figure 14 (paper §4.3): the performance tradeoff of the AVX redirect as
// thread count grows. The extra PM->DRAM copy costs latency at low thread
// counts; once the threads contend for media read bandwidth, the halved media
// traffic (no misprefetched XPLines) wins both latency and throughput — the
// paper sees the crossover at ~12 threads.

#include <string>
#include <vector>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/common/random.h"
#include "src/core/platform.h"

namespace {

using namespace pmemsim;
using pmemsim_bench::RunWorkers;

struct Result {
  double cycles_per_block = 0;
  double gbps = 0;
};

Result RunScaling(Generation gen, bool optimized, uint32_t threads, uint64_t wss,
                  uint64_t blocks_per_thread) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  const PmRegion region = system->AllocatePm(wss, kXPLineSize);
  const uint64_t blocks = wss / kXPLineSize;

  struct Worker {
    ThreadContext* ctx;
    PmRegion bounce;
    Rng rng{0};
    uint64_t done = 0;
  };
  std::vector<Worker> workers(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    workers[t].ctx = &system->CreateThread();
    SetPrefetchers(*workers[t].ctx, true, true, true);
    workers[t].bounce = system->AllocateDram(kXPLineSize, kXPLineSize);
    workers[t].rng = Rng(0x14F + t);
  }

  auto visit = [&](Worker& w) {
    const Addr base = region.base + w.rng.NextBelow(blocks) * kXPLineSize;
    if (optimized) {
      w.ctx->StreamCopyXPLine(base, w.bounce.base);
      for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
        w.ctx->LoadLine(w.bounce.base + cl * kCacheLineSize);
      }
    } else {
      for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
        w.ctx->LoadLine(base + cl * kCacheLineSize);
      }
    }
    for (uint64_t cl = 0; cl < kLinesPerXPLine; ++cl) {
      w.ctx->Clflushopt(base + cl * kCacheLineSize);
    }
    w.ctx->Sfence();
  };

  RunWorkers(workers, std::vector<uint64_t>(threads, blocks_per_thread / 4), visit);  // warmup
  // Every worker starts the measured phase at the latest warm-up clock.
  Cycles start_max = 0;
  for (const Worker& w : workers) {
    start_max = std::max(start_max, w.ctx->clock());
  }
  for (Worker& w : workers) {
    w.ctx->AdvanceTo(start_max);
  }
  const Cycles end_max =
      RunWorkers(workers, std::vector<uint64_t>(threads, blocks_per_thread), visit);

  double total_cycles = 0;
  for (Worker& w : workers) {
    total_cycles += static_cast<double>(w.ctx->clock() - start_max);
  }
  const double total_blocks = static_cast<double>(threads) * static_cast<double>(blocks_per_thread);
  Result r;
  r.cycles_per_block = total_cycles / total_blocks;
  // Program-demanded bytes per second (the paper plots GB/s of useful data).
  r.gbps = total_blocks * kXPLineSize * system->config().cpu_ghz /
           static_cast<double>(end_max - start_max);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig14_redirect_scaling");
  const auto gens = sweep.flags().GetGenerations("both");
  const uint64_t wss = MiB(sweep.flags().GetU64("wss_mb", 256));
  const uint64_t blocks = sweep.flags().GetU64("blocks", 4000);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 14", "redirect latency/throughput vs thread count",
                  {"gen", "variant", "threads", "cycles_per_block", "throughput_gbps"});
  for (const auto& g : gens) {
    const uint32_t max_threads = g.gen == Generation::kG1 ? 16 : 24;
    for (const bool optimized : {false, true}) {
      for (uint32_t t = 1; t <= max_threads; t += (t < 4 ? 1 : 2)) {
        const char* variant = optimized ? "optimized" : "prefetching";
        const std::string label =
            std::string(g.name) + "/" + variant + "/t" + std::to_string(t);
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          const Result r = RunScaling(g.gen, optimized, t, wss, blocks);
          point.Emit(pmemsim_bench::Row()
                         .Set("gen", g.name)
                         .Set("variant", variant)
                         .Set("threads", t)
                         .Set("cycles_per_block", r.cycles_per_block, 0)
                         .Set("throughput_gbps", r.gbps, 3));
        });
      }
    }
  }
  return sweep.Finish();
}
