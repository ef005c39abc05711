// Engine-throughput harness (not a paper figure): measures how many simulated
// operations per wall-clock second the cycle-level engine sustains on the
// hot-path workload shapes — sequential loads, random loads over an
// AIT-overflowing working set, dependent pointer chasing, ntstore+fence
// streams, and a mixed CCEH insert/lookup phase. The sweep scale of the
// figure grid is bounded by this number, so the harness writes a trajectory
// baseline (BENCH_hotpath.json at the repo root) that CI's perf-smoke job
// gates against scripts/check_perf.py with a generous regression margin.
//
// One row per workload, the same cells in the CSV and the JSON: the median
// wall time and throughput plus per-layer context — simulated cycles,
// stall-cycle shares (RAP + WPQ), and the media/AIT traffic the ops
// generated — enough to see *where* simulated time and wall time go when the
// trajectory moves.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/datastores/cceh.h"
#include "src/datastores/chase_list.h"
#include "src/trace/counters.h"

namespace {

using namespace pmemsim;

struct WorkloadResult {
  uint64_t ops = 0;
  double wall_sec = 0.0;
  Cycles sim_cycles = 0;
  Counters delta;
};

using WorkloadFn = std::function<WorkloadResult(uint64_t ops)>;

// Sequential 64 B-strided loads over a read-buffer/L3-exceeding region.
WorkloadResult RunSeqLoad(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(MiB(16), kXPLineSize);
  const uint64_t lines = region.size / kCacheLineSize;

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = pmemsim_bench::Now();
  for (uint64_t i = 0; i < ops; ++i) {
    ctx.Load64(region.base + (i % lines) * kCacheLineSize);
  }
  r.wall_sec = pmemsim_bench::Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

// Uniform random loads over 64 MiB: past AIT coverage and L3, so nearly every
// op walks cache miss -> AIT -> media -> read-buffer fill.
WorkloadResult RunRandLoad(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, false, false, false);
  const PmRegion region = system->AllocatePm(MiB(64), kXPLineSize);
  const uint64_t lines = region.size / kCacheLineSize;
  Rng rng(0x5EED0001);

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = pmemsim_bench::Now();
  for (uint64_t i = 0; i < ops; ++i) {
    ctx.Load64(region.base + rng.NextBelow(lines) * kCacheLineSize);
  }
  r.wall_sec = pmemsim_bench::Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

// Dependent pointer chase over a random-permutation circular list (Fig. 8's
// element shape): no MLP, every element is a full-latency round trip.
WorkloadResult RunChase(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, false, false, false);
  const PmRegion region = system->AllocatePm(MiB(32), kXPLineSize);
  ChaseList list(system.get(), region, /*sequential=*/false, /*seed=*/0x5EED0002);

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = pmemsim_bench::Now();
  list.TraverseRead(ctx, ops);
  r.wall_sec = pmemsim_bench::Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

// Random partial nt-stores with an sfence every 4: the write-buffer /
// WPQ / media-write-port pipeline, WSS past the buffer knee.
WorkloadResult RunNtStore(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(MiB(1), kXPLineSize);
  const uint64_t lines = region.size / kCacheLineSize;
  Rng rng(0x5EED0003);

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = pmemsim_bench::Now();
  for (uint64_t i = 0; i < ops; ++i) {
    ctx.NtStore64(region.base + rng.NextBelow(lines) * kCacheLineSize, i);
    if ((i & 3) == 3) {
      ctx.Sfence();
    }
  }
  ctx.Sfence();
  r.wall_sec = pmemsim_bench::Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

// Mixed CCEH phase: 1 insert : 3 lookups, uniform keys — the §4.1 index
// workload; exercises every layer at once (caches, buffers, AIT, WPQ).
WorkloadResult RunCcehMixed(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  Cceh table(system.get(), ctx, /*initial_depth=*/4, MemoryKind::kOptane);
  Rng rng(0x5EED0004);

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = pmemsim_bench::Now();
  uint64_t next_key = 1;
  for (uint64_t i = 0; i < ops; ++i) {
    if ((i & 3) == 0) {
      table.Insert(ctx, next_key++, i);
    } else {
      uint64_t value = 0;
      (void)table.Get(ctx, 1 + rng.NextBelow(next_key), &value);
    }
  }
  r.wall_sec = pmemsim_bench::Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Flags flags(
      argc, argv,
      "--quick lowers --ops_scale's default to the CI perf-smoke size (see --quick --help);\n"
      "--ops_scale=N scales every workload's op count to N%. Repetitions run interleaved\n"
      "round-robin so ambient host load drifts across all workloads equally; reported\n"
      "throughput is the median. --stats_json= (empty) writes no report.");
  struct Spec {
    const char* name;
    uint64_t default_ops;
    WorkloadFn fn;
  };
  const std::vector<Spec> specs = {
      {"seq_load", 4'000'000, RunSeqLoad},       {"rand_load", 2'000'000, RunRandLoad},
      {"chase", 1'000'000, RunChase},            {"ntstore", 2'000'000, RunNtStore},
      {"cceh_mixed", 1'000'000, RunCcehMixed},
  };
  std::vector<std::string> names = {"all"};
  for (const Spec& s : specs) {
    names.push_back(s.name);
  }
  const bool quick = flags.Has("quick");
  const uint64_t ops_scale = flags.GetU64("ops_scale", quick ? 100 / 16 : 100);
  const uint64_t reps = flags.GetPositiveU64("reps", 5);
  const std::string only = flags.GetChoice("workload", "all", names);
  pmemsim_bench::BenchReport report(flags, "perf_hotpath", "BENCH_hotpath.json");
  flags.RejectUnknown();

  pmemsim_bench::PrintHeader("perf_hotpath", "simulated-ops-per-wall-second engine throughput");
  report.DeclareColumns({"workload", "ops", "reps", "wall_ms", "sim_mops_per_sec", "sim_cycles",
                         "cycles_per_op", "rap_stall_share", "wpq_stall_share",
                         "media_read_bytes", "media_write_bytes", "ait_misses",
                         "read_buffer_hit_ratio", "write_buffer_hit_ratio"});
  int rc = 0;

  // Interleaved repetitions: run rep 0 of every workload, then rep 1, and so
  // on, so a host-load drift over the run biases every workload's sample set
  // the same way instead of landing wholly on the last workloads. Reported
  // wall time (and thus throughput) is the per-workload median; everything
  // simulated must be bit-identical across reps and is checked below.
  std::vector<std::vector<WorkloadResult>> samples(specs.size());
  for (uint64_t rep = 0; rep < reps; ++rep) {
    for (size_t si = 0; si < specs.size(); ++si) {
      if (only != "all" && only != specs[si].name) {
        continue;
      }
      const uint64_t ops = std::max<uint64_t>(1, specs[si].default_ops * ops_scale / 100);
      samples[si].push_back(specs[si].fn(ops));
    }
  }

  for (size_t si = 0; si < specs.size(); ++si) {
    const Spec& spec = specs[si];
    if (samples[si].empty()) {
      continue;
    }
    const WorkloadResult& r = samples[si].front();
    bool bad = r.ops == 0;
    std::vector<double> walls;
    for (const WorkloadResult& s : samples[si]) {
      bad |= s.wall_sec <= 0.0;
      if (s.sim_cycles != r.sim_cycles) {
        std::fprintf(stderr, "error: workload %s is nondeterministic across reps (%llu vs %llu)\n",
                     spec.name, static_cast<unsigned long long>(s.sim_cycles),
                     static_cast<unsigned long long>(r.sim_cycles));
        bad = true;
      }
      walls.push_back(s.wall_sec);
    }
    if (bad) {
      std::fprintf(stderr, "error: workload %s measured nothing\n", spec.name);
      rc = 1;
      continue;
    }
    const double wall_sec = pmemsim_bench::Median(walls);
    const double mops = static_cast<double>(r.ops) / wall_sec / 1e6;
    const double cycles_per_op =
        static_cast<double>(r.sim_cycles) / static_cast<double>(r.ops);
    const double sim_cycles = static_cast<double>(r.sim_cycles);
    report.Emit(pmemsim_bench::Row()
                    .Set("workload", spec.name)
                    .Set("ops", r.ops)
                    .Set("reps", reps)
                    .Set("wall_ms", wall_sec * 1e3, 1)
                    .Set("sim_mops_per_sec", mops, 3)
                    .Set("sim_cycles", r.sim_cycles)
                    .Set("cycles_per_op", cycles_per_op, 1)
                    .Set("rap_stall_share",
                         sim_cycles > 0 ? static_cast<double>(r.delta.rap_stall_cycles) / sim_cycles
                                        : 0.0,
                         4)
                    .Set("wpq_stall_share",
                         sim_cycles > 0 ? static_cast<double>(r.delta.wpq_stall_cycles) / sim_cycles
                                        : 0.0,
                         4)
                    .Set("media_read_bytes", r.delta.media_read_bytes)
                    .Set("media_write_bytes", r.delta.media_write_bytes)
                    .Set("ait_misses", r.delta.ait_misses)
                    .Set("read_buffer_hit_ratio", r.delta.ReadBufferHitRatio(), 4)
                    .Set("write_buffer_hit_ratio", r.delta.WriteBufferHitRatio(), 4));
  }
  const int finish_rc = report.Finish();
  return rc != 0 ? rc : finish_rc;
}
