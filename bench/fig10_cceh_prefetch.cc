// Figure 10 (paper §4.1): CCEH insert latency and throughput with and without
// speculative helper-thread prefetching, on Optane PM and on DRAM, for 1-10
// worker threads.
//
// Expected shapes (paper): on PM the helper improves latency by up to ~36%
// and throughput by up to ~34% consistently across worker counts; on DRAM it
// yields no improvement and mild degradation (random DRAM reads are already
// cheap; the helper only costs SMT resources and bandwidth).

#include <memory>
#include <string>

#include "bench/sweep_runner.h"
#include "src/common/config.h"
#include "src/core/platform.h"
#include "src/cpu/scheduler.h"
#include "src/datastores/cceh.h"
#include "src/prefetch/helper_thread.h"
#include "src/workload/ycsb.h"

namespace {

using namespace pmemsim;

struct Result {
  double cycles_per_insert = 0;
  double mops = 0;
};

Result RunCceh(Generation gen, MemoryKind kind, uint32_t workers, bool prefetch,
               uint64_t total_keys, uint32_t depth, bool scaled_cache, uint32_t dimms) {
  PlatformConfig cfg = PlatformFor(gen);
  if (scaled_cache) {
    // Scaled testbed: the paper loads a 256 MB table (~10x the LLC). Keeping
    // that table:LLC ratio at simulator-friendly key counts means shrinking
    // the modeled L3 (see EXPERIMENTS.md).
    cfg.cache.l3.size_bytes = MiB(3);
    cfg.cache.l3.ways = 12;
  }
  auto system = std::make_unique<System>(cfg, dimms);
  ThreadContext& init_ctx = system->CreateThread();
  Cceh table(system.get(), init_ctx, /*initial_depth=*/6, kind);

  const std::vector<uint64_t> keys = MakeLoadKeys(total_keys, /*seed=*/0xF1610);
  const std::vector<std::vector<uint64_t>> shards = ShardKeys(keys, workers);

  std::vector<SimJob> jobs;
  std::vector<std::unique_ptr<SpeculativeHelperPair>> pairs;
  std::vector<size_t> cursors(workers, 0);
  std::vector<ThreadContext*> ctxs;
  for (uint32_t w = 0; w < workers; ++w) {
    ctxs.push_back(&system->CreateThread());
  }
  Cycles start_max = 0;
  for (uint32_t w = 0; w < workers; ++w) {
    start_max = std::max(start_max, ctxs[w]->clock());
  }

  uint64_t inserted = 0;
  if (prefetch) {
    for (uint32_t w = 0; w < workers; ++w) {
      ThreadContext* helper = &system->CreateSmtSibling(*ctxs[w]);
      const auto& shard = shards[w];
      pairs.push_back(std::make_unique<SpeculativeHelperPair>(
          ctxs[w], helper, shard.size(),
          [&table, &shard, &inserted](ThreadContext& ctx, size_t i) {
            table.Insert(ctx, shard[i], shard[i] * 3);
            ++inserted;
          },
          [&table, &shard](ThreadContext& ctx, size_t i) {
            table.PrefetchProbePath(ctx, shard[i]);
          },
          HelperConfig{depth, 1.6}));
      pairs.back()->AppendJobs(jobs);
    }
  } else {
    for (uint32_t w = 0; w < workers; ++w) {
      const auto& shard = shards[w];
      jobs.push_back({ctxs[w], [&, w]() {
                        if (cursors[w] >= shard.size()) {
                          return StepResult::kDone;
                        }
                        const uint64_t key = shard[cursors[w]++];
                        table.Insert(*ctxs[w], key, key * 3);
                        ++inserted;
                        return StepResult::kProgress;
                      }});
    }
  }
  Scheduler::Run(jobs);

  Cycles worker_cycles = 0;
  Cycles end_max = 0;
  for (uint32_t w = 0; w < workers; ++w) {
    worker_cycles += ctxs[w]->clock();
    end_max = std::max(end_max, ctxs[w]->clock());
  }
  Result r;
  r.cycles_per_insert = static_cast<double>(worker_cycles) / static_cast<double>(total_keys);
  r.mops = static_cast<double>(inserted) * system->config().cpu_ghz * 1e3 /
           static_cast<double>(end_max - start_max);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig10_cceh_prefetch");
  const Generation gen = sweep.flags().GetChoice("gen", "g1", {"g1", "g2"}) == "g2"
                             ? Generation::kG2
                             : Generation::kG1;
  const uint64_t keys = sweep.flags().GetU64("keys", 600000);
  const uint32_t depth = sweep.flags().GetU32("depth", 8);
  const uint32_t max_workers = sweep.flags().GetU32("max_workers", 8);
  const bool scaled_cache = !sweep.flags().Has("full_cache");
  const uint32_t dimms = sweep.flags().GetU32("dimms", 6);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 10", "CCEH with helper-thread prefetching (PM vs DRAM)",
                  {"device", "variant", "workers", "cycles_per_insert", "mops"});
  for (const MemoryKind kind : {MemoryKind::kOptane, MemoryKind::kDram}) {
    for (const bool prefetch : {false, true}) {
      for (uint32_t w = 1; w <= max_workers; ++w) {
        const char* device = kind == MemoryKind::kOptane ? "PM" : "DRAM";
        const char* variant = prefetch ? "cceh+prefetch" : "cceh";
        const std::string label =
            std::string(device) + "/" + variant + "/w" + std::to_string(w);
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          const Result r = RunCceh(gen, kind, w, prefetch, keys, depth, scaled_cache, dimms);
          point.Emit(pmemsim_bench::Row()
                         .Set("device", device)
                         .Set("variant", variant)
                         .Set("workers", w)
                         .Set("cycles_per_insert", r.cycles_per_insert, 0)
                         .Set("mops", r.mops, 2));
        });
      }
    }
  }
  return sweep.Finish();
}
