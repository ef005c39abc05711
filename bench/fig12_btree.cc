// Figure 12 (paper §4.2): FAST&FAIR-style B+-tree insert throughput and
// latency, in-place shifting (barrier per shift) vs out-of-place redo
// logging, on G1 and G2, single Optane DIMM, 1-9 threads.
//
// Expected shapes (paper): on G1 redo logging wins (~38.8% lower latency,
// ~60.8% higher throughput at low thread counts, the gap narrowing as threads
// contend for Optane bandwidth); on G2 (clwb retains the line, same-line
// persists merge) there is no benefit and a slight slowdown at high thread
// counts from the doubled PM writes.

#include <memory>
#include <string>

#include "bench/sweep_runner.h"
#include "src/core/platform.h"
#include "src/cpu/scheduler.h"
#include "src/datastores/fast_fair.h"
#include "src/persist/redo_log.h"
#include "src/workload/ycsb.h"

namespace {

using namespace pmemsim;

struct Result {
  double cycles_per_insert = 0;
  double mops = 0;
};

Result RunTree(Generation gen, BTreeUpdateMode mode, uint32_t threads, uint64_t total_keys) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& init_ctx = system->CreateThread();
  FastFairTree tree(system.get(), init_ctx, MemoryKind::kOptane);

  const std::vector<uint64_t> keys = MakeLoadKeys(total_keys, /*seed=*/0xB7EE);
  const std::vector<std::vector<uint64_t>> shards = ShardKeys(keys, threads);

  std::vector<ThreadContext*> ctxs;
  std::vector<std::unique_ptr<RedoLog>> logs;
  for (uint32_t t = 0; t < threads; ++t) {
    ctxs.push_back(&system->CreateThread());
    logs.push_back(std::make_unique<RedoLog>(
        system.get(), system->AllocatePm(KiB(16), kCacheLineSize)));
  }

  Cycles start_max = 0;
  for (ThreadContext* c : ctxs) {
    start_max = std::max(start_max, c->clock());
  }

  std::vector<size_t> cursors(threads, 0);
  std::vector<SimJob> jobs;
  for (uint32_t t = 0; t < threads; ++t) {
    jobs.push_back({ctxs[t], [&, t]() {
                      if (cursors[t] >= shards[t].size()) {
                        return StepResult::kDone;
                      }
                      const uint64_t key = shards[t][cursors[t]++];
                      tree.Insert(*ctxs[t], key, key + 1, mode, logs[t].get());
                      return StepResult::kProgress;
                    }});
  }
  Scheduler::Run(jobs);

  Cycles worker_cycles = 0;
  Cycles end_max = 0;
  for (ThreadContext* c : ctxs) {
    worker_cycles += c->clock();
    end_max = std::max(end_max, c->clock());
  }
  return {static_cast<double>(worker_cycles) / static_cast<double>(total_keys),
          static_cast<double>(total_keys) * system->config().cpu_ghz * 1e3 /
              static_cast<double>(end_max - start_max)};
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig12_btree");
  const auto gens = sweep.flags().GetGenerations("both");
  const uint64_t keys = sweep.flags().GetU64("keys", 120000);
  const uint32_t max_threads = sweep.flags().GetU32("max_threads", 9);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 12", "FAST&FAIR inserts: in-place vs out-of-place redo logging",
                  {"gen", "mode", "threads", "cycles_per_insert", "mops"});
  for (const auto& g : gens) {
    for (const BTreeUpdateMode mode : {BTreeUpdateMode::kInPlace, BTreeUpdateMode::kRedoLog}) {
      for (uint32_t t = 1; t <= max_threads; t += 2) {
        const char* mode_name = mode == BTreeUpdateMode::kInPlace ? "in-place" : "out-of-place";
        const std::string label =
            std::string(g.name) + "/" + mode_name + "/t" + std::to_string(t);
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          const Result r = RunTree(g.gen, mode, t, keys);
          point.Emit(pmemsim_bench::Row()
                         .Set("gen", g.name)
                         .Set("mode", mode_name)
                         .Set("threads", t)
                         .Set("cycles_per_insert", r.cycles_per_insert, 0)
                         .Set("mops", r.mops, 3));
        });
      }
    }
  }
  return sweep.Finish();
}
