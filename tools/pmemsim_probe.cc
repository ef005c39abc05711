// pmemsim_probe — a LENS-style microbenchmark driver for exploring the
// simulated DIMM interactively, the way the paper's authors probed real
// hardware with ipmwatch.
//
//   $ pmemsim_probe --platform=g1 --op=read --pattern=rand --wss=64M --threads=4
//   $ pmemsim_probe --op=write --persist=clwb --pattern=seq --wss=8K
//   $ pmemsim_probe --op=rap --distance=2
//
// Prints one row: the configuration, per-op latency percentiles, achieved
// bandwidth, and the ipmwatch-equivalent counters (amplifications, buffer
// hit ratios, stalls).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/core/platform.h"

namespace {

using namespace pmemsim;

struct ProbeConfig {
  // The defaults below are the flags' defaults: main() reads each flag with
  // its field as the default.
  PlatformConfig platform;         // selected by --platform
  std::string op = "read";         // read | write | ntstore | rap | copy
  std::string pattern = "rand";    // seq | rand
  pmemsim_bench::AccessSpec spec;  // --op, --pattern, --persist and --distance
  uint64_t wss = MiB(64);
  uint64_t stride = kCacheLineSize;
  uint32_t threads = 1;
  uint64_t ops = 100000;
  uint32_t dimms = 1;
  bool prefetch = true;
  bool remote = false;
};

// The kernel op of --op (and of a write's --persist); rap is Algorithm 1's
// clwb+mfence read-after-persist.
pmemsim_bench::AccessSpec ProbeSpec(const std::string& op, const std::string& persist) {
  using pmemsim_bench::AccessOp;
  if (op == "write" && persist == "none") {
    return {.op = AccessOp::kStore};
  }
  if (op == "write") {
    return {.op = AccessOp::kPersist,
            .mode = persist == "clwb" ? PersistMode::kClwbSfence : PersistMode::kClwbMfence};
  }
  if (op == "ntstore") {
    return {.op = AccessOp::kPersist, .mode = PersistMode::kNtStoreSfence};
  }
  if (op == "rap") {
    return {.op = AccessOp::kRap, .mode = PersistMode::kClwbMfence};
  }
  return {.op = op == "read" ? AccessOp::kLoadLine : AccessOp::kStreamCopy};
}

void RunProbe(const ProbeConfig& cfg, pmemsim_bench::SweepPoint& point) {
  auto system = std::make_unique<System>(cfg.platform, cfg.dimms);
  const PmRegion region = system->AllocatePm(cfg.wss, kXPLineSize);

  std::vector<pmemsim_bench::AccessWorker> workers(cfg.threads);
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    workers[t].ctx = &system->CreateThread(cfg.remote ? 1 : 0);
    workers[t].rng = Rng(0x9E0B + t);
    SetPrefetchers(*workers[t].ctx, cfg.prefetch, cfg.prefetch, cfg.prefetch);
  }
  const PmRegion bounce = system->AllocateDram(kXPLineSize, kXPLineSize);
  const pmemsim_bench::AccessKernel kernel{cfg.spec, region, cfg.stride, bounce.base};

  // The threads split --ops exactly. Warmup of a quarter of each thread's
  // quota, then the measured phase from a common start clock.
  const std::vector<uint64_t> quotas = pmemsim_bench::SplitOps(cfg.ops, cfg.threads);
  std::vector<uint64_t> warm;
  for (const uint64_t q : quotas) {
    warm.push_back(q / 4);
  }
  pmemsim_bench::RunWorkers(workers, warm, kernel);
  CounterDelta delta(&system->counters());
  Cycles start_max = 0;
  for (const pmemsim_bench::AccessWorker& w : workers) {
    start_max = std::max(start_max, w.ctx->clock());
  }
  for (pmemsim_bench::AccessWorker& w : workers) {
    w.ctx->AdvanceTo(start_max);
    w.latency.Reset();
  }
  const Cycles end = pmemsim_bench::RunWorkers(workers, quotas, kernel);

  Histogram all;
  uint64_t total_ops = 0;
  for (const pmemsim_bench::AccessWorker& w : workers) {
    all.Merge(w.latency);
    total_ops += w.done;
  }
  const double seconds =
      static_cast<double>(end - start_max) / (cfg.platform.cpu_ghz * 1e9);
  const double touched =
      static_cast<double>(total_ops) *
      (cfg.spec.op == pmemsim_bench::AccessOp::kStreamCopy ? kXPLineSize : kCacheLineSize);

  const Counters d = delta.Delta();
  point.Emit(pmemsim_bench::Row()
                 .Set("op", cfg.op)
                 .Set("pattern", cfg.pattern)
                 .Set("wss_kb", cfg.wss / 1024)
                 .Set("stride", cfg.stride)
                 .Set("threads", cfg.threads)
                 .Set("platform", cfg.platform.name)
                 .Set("dimms", cfg.dimms)
                 .Set("ops", all.count())
                 .Set("latency_mean", all.mean(), 1)
                 .Set("latency_p50", all.Quantile(0.50))
                 .Set("latency_p90", all.Quantile(0.90))
                 .Set("latency_p99", all.Quantile(0.99))
                 .Set("latency_min", all.Min())
                 .Set("latency_max", all.Max())
                 .Set("mops", static_cast<double>(total_ops) / seconds / 1e6, 2)
                 .Set("gbps", touched / seconds / 1e9, 3)
                 .Set("imc_read_bytes", d.imc_read_bytes)
                 .Set("imc_write_bytes", d.imc_write_bytes)
                 .Set("media_read_bytes", d.media_read_bytes)
                 .Set("media_write_bytes", d.media_write_bytes)
                 .Set("read_amplification", d.ReadAmplification(), 2)
                 .Set("write_amplification", d.WriteAmplification(), 2)
                 .Set("read_buffer_hits", d.read_buffer_hits)
                 .Set("read_buffer_misses", d.read_buffer_misses)
                 .Set("write_buffer_hits", d.write_buffer_hits)
                 .Set("write_buffer_misses", d.write_buffer_misses)
                 .Set("write_buffer_evictions", d.write_buffer_evictions)
                 .Set("ait_hits", d.ait_hits)
                 .Set("ait_misses", d.ait_misses)
                 .Set("rap_stalled_loads", d.rap_stalled_loads)
                 .Set("rap_stall_cycles", d.rap_stall_cycles)
                 .Set("wpq_stall_cycles", d.wpq_stall_cycles));
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "pmemsim_probe");
  const pmemsim_bench::Flags& flags = sweep.flags();
  ProbeConfig cfg;
  cfg.platform = flags.GetPlatform("platform", "g1");
  cfg.op = flags.GetChoice("op", cfg.op, {"read", "write", "ntstore", "rap", "copy"});
  cfg.pattern = flags.GetChoice("pattern", cfg.pattern, {"seq", "rand"});
  const std::string persist =
      flags.GetChoice("persist", "none", {"none", "clwb", "clwb+mfence"});
  cfg.wss = flags.GetSize("wss", cfg.wss);
  cfg.stride = flags.GetPositiveU64("stride", cfg.stride);
  cfg.threads = flags.GetPositiveU32("threads", cfg.threads);
  cfg.ops = flags.GetPositiveU64("ops", cfg.ops);
  cfg.spec = ProbeSpec(cfg.op, persist);
  cfg.spec.pattern = cfg.pattern == "seq" ? pmemsim_bench::AccessPattern::kSeq
                                          : pmemsim_bench::AccessPattern::kRand;
  cfg.spec.distance = flags.GetU64("distance", cfg.spec.distance);
  cfg.dimms = flags.GetU32("dimms", cfg.dimms);
  if (cfg.wss < cfg.stride) {
    pmemsim_bench::Flags::BadValue("wss", std::to_string(cfg.wss),
                                   "working set of at least one stride");
  }
  cfg.prefetch = !flags.Has("no_prefetch");
  cfg.remote = flags.Has("remote");
  pmemsim_bench::SweepRunner& runner = sweep.Start(
      "pmemsim_probe", "per-op latency, bandwidth and ipmwatch counters of one access pattern",
      {"op", "pattern", "wss_kb", "stride", "threads", "platform", "dimms", "ops", "latency_mean",
       "latency_p50", "latency_p90", "latency_p99", "latency_min", "latency_max", "mops", "gbps",
       "imc_read_bytes", "imc_write_bytes", "media_read_bytes", "media_write_bytes",
       "read_amplification", "write_amplification", "read_buffer_hits", "read_buffer_misses",
       "write_buffer_hits", "write_buffer_misses", "write_buffer_evictions", "ait_hits",
       "ait_misses", "rap_stalled_loads", "rap_stall_cycles", "wpq_stall_cycles"});
  runner.Add(cfg.op, [=](pmemsim_bench::SweepPoint& point) { RunProbe(cfg, point); });
  return sweep.Finish();
}
