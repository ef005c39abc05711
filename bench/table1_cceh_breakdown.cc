// Table 1 (paper §4.1): time breakdown of key insertion in CCEH under
// {1, 5} worker threads and {1, 6} Optane DIMMs.
//
// The paper's profile attributes ~50% of insert time to the random segment
// read, ~22-26% to persists, and the rest to "Misc." — the key claim being
// that the random reads inside the segment, not the persists, bottleneck this
// write-intensive workload regardless of thread or DIMM count. Our simulator
// separates the segment-header read from the bucket-probe read (both random
// media reads that perf-level attribution lumps together; see EXPERIMENTS.md).

#include <memory>
#include <vector>

#include "bench/sweep_runner.h"
#include "src/common/config.h"
#include "src/core/platform.h"
#include "src/cpu/scheduler.h"
#include "src/datastores/cceh.h"
#include "src/workload/ycsb.h"

namespace {

using namespace pmemsim;

struct Breakdown {
  double directory, segment_meta, bucket, persist, split, total_cycles_per_insert;
};

Breakdown RunBreakdown(uint32_t threads, uint32_t dimms, uint64_t total_keys, bool scaled_cache) {
  PlatformConfig cfg = G1Platform();
  if (scaled_cache) {
    cfg.cache.l3.size_bytes = MiB(3);  // scaled testbed: see EXPERIMENTS.md
    cfg.cache.l3.ways = 12;
  }
  auto system = std::make_unique<System>(cfg, dimms);
  ThreadContext& init_ctx = system->CreateThread();
  Cceh table(system.get(), init_ctx, /*initial_depth=*/8, MemoryKind::kOptane);

  const std::vector<uint64_t> keys = MakeLoadKeys(total_keys, /*seed=*/0x7AB1E);
  const std::vector<std::vector<uint64_t>> shards = ShardKeys(keys, threads);

  std::vector<size_t> cursors(threads, 0);
  std::vector<ThreadContext*> ctxs;
  for (uint32_t t = 0; t < threads; ++t) {
    ctxs.push_back(&system->CreateThread());
  }
  // Phase 1: grow the table past the LLC (the paper's table holds 16 M pairs,
  // ~256 MB — far beyond any cache). The breakdown is profiled in steady
  // state, over the last quarter of the load.
  auto run_until = [&](double fraction) {
    std::vector<SimJob> jobs;
    for (uint32_t t = 0; t < threads; ++t) {
      const size_t limit = static_cast<size_t>(fraction * static_cast<double>(shards[t].size()));
      jobs.push_back({ctxs[t], [&, t, limit]() {
                        if (cursors[t] >= limit) {
                          return StepResult::kDone;
                        }
                        const uint64_t key = shards[t][cursors[t]++];
                        table.Insert(*ctxs[t], key, key * 3);
                        return StepResult::kProgress;
                      }});
    }
    Scheduler::Run(jobs);
  };
  run_until(0.75);
  table.breakdown() = CcehBreakdown{};
  run_until(1.0);

  const CcehBreakdown& b = table.breakdown();
  const double total = static_cast<double>(b.total());
  return {100.0 * static_cast<double>(b.directory) / total,
          100.0 * static_cast<double>(b.segment_meta) / total,
          100.0 * static_cast<double>(b.bucket_probe) / total,
          100.0 * static_cast<double>(b.persist) / total,
          100.0 * static_cast<double>(b.split) / total,
          total / static_cast<double>(b.inserts)};
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "table1_cceh_breakdown");
  const uint64_t keys = sweep.flags().GetU64("keys", 2000000);
  const bool scaled_cache = !sweep.flags().Has("full_cache");
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Table 1", "time breakdown of key insertion in CCEH (G1)",
                  {"config", "directory_pct", "segment_meta_pct", "bucket_probe_pct",
                   "persist_pct", "split_pct", "cycles_per_insert"});
  struct Config {
    uint32_t threads, dimms;
    const char* name;
  };
  static const Config kConfigs[] = {
      {1, 1, "1T/1-DIMM"}, {5, 1, "5T/1-DIMM"}, {1, 6, "1T/6-DIMM"}, {5, 6, "5T/6-DIMM"}};
  for (const Config& c : kConfigs) {
    runner.Add(c.name, [=](pmemsim_bench::SweepPoint& point) {
      const Breakdown b = RunBreakdown(c.threads, c.dimms, keys, scaled_cache);
      point.Emit(pmemsim_bench::Row()
                     .Set("config", c.name)
                     .Set("directory_pct", b.directory, 1)
                     .Set("segment_meta_pct", b.segment_meta, 1)
                     .Set("bucket_probe_pct", b.bucket, 1)
                     .Set("persist_pct", b.persist, 1)
                     .Set("split_pct", b.split, 1)
                     .Set("cycles_per_insert", b.total_cycles_per_insert, 0));
    });
  }
  return sweep.Finish();
}
