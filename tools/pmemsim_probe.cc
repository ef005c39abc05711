// pmemsim_probe — a LENS-style microbenchmark driver for exploring the
// simulated DIMM interactively, the way the paper's authors probed real
// hardware with ipmwatch.
//
//   $ pmemsim_probe --gen=g1 --op=read --pattern=rand --wss=64M --threads=4
//   $ pmemsim_probe --op=write --persist=clwb --pattern=seq --wss=8K
//   $ pmemsim_probe --op=rap --distance=2
//
// Prints per-op latency percentiles, achieved bandwidth, and the ipmwatch-
// equivalent counters (amplifications, buffer hit ratios, stalls).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sweep_runner.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/core/platform.h"
#include "src/cpu/scheduler.h"
#include "src/persist/barrier.h"

namespace {

using namespace pmemsim;

struct ProbeConfig {
  PlatformConfig platform;        // selected by --platform (or legacy --gen)
  std::string op = "read";        // read | write | ntstore | rap | copy
  std::string pattern = "rand";   // seq | rand
  std::string persist = "none";   // none | clwb | clwb+mfence
  uint64_t wss = MiB(64);
  uint64_t stride = kCacheLineSize;
  uint32_t threads = 1;
  uint64_t ops = 100000;
  uint64_t distance = 0;  // rap distance
  uint32_t dimms = 1;
  bool prefetch = true;
  bool remote = false;
};

void RunProbe(const ProbeConfig& cfg, pmemsim_bench::SweepPoint& point) {
  auto system = std::make_unique<System>(cfg.platform, cfg.dimms);
  const PmRegion region = system->AllocatePm(cfg.wss, kXPLineSize);
  const uint64_t lines = cfg.wss / cfg.stride;

  struct Worker {
    ThreadContext* ctx;
    Rng rng{0};
    uint64_t done = 0;
    uint64_t pos = 0;
    Histogram latency;
  };
  std::vector<Worker> workers(cfg.threads);
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    workers[t].ctx = &system->CreateThread(cfg.remote ? 1 : 0);
    workers[t].rng = Rng(0x9E0B + t);
    SetPrefetchers(*workers[t].ctx, cfg.prefetch, cfg.prefetch, cfg.prefetch);
  }

  const PmRegion bounce = system->AllocateDram(kXPLineSize, kXPLineSize);
  auto one_op = [&](Worker& w) {
    ThreadContext& ctx = *w.ctx;
    const uint64_t index =
        cfg.pattern == "seq" ? (w.pos++ % lines) : w.rng.NextBelow(lines);
    const Addr addr = region.base + index * cfg.stride;
    const Cycles t0 = ctx.clock();
    if (cfg.op == "read") {
      ctx.LoadLine(addr);
    } else if (cfg.op == "write") {
      ctx.Store64(addr, w.done);
      if (cfg.persist != "none") {
        ctx.Clwb(addr);
        if (cfg.persist == "clwb+mfence") {
          ctx.Mfence();
        } else {
          ctx.Sfence();
        }
      }
    } else if (cfg.op == "ntstore") {
      ctx.NtStore64(addr, w.done);
      ctx.Sfence();
    } else if (cfg.op == "rap") {
      ctx.Store64(addr, w.done);
      ctx.Clwb(addr);
      ctx.Mfence();
      const uint64_t back = (index + lines - (cfg.distance % lines)) % lines;
      ctx.Load64(region.base + back * cfg.stride);
    } else {  // copy
      ctx.StreamCopyXPLine(XPLineBase(addr), bounce.base);
    }
    w.latency.Add(ctx.clock() - t0);
  };

  // Warmup, then measured phase.
  const uint64_t per_thread = cfg.ops / cfg.threads + 1;
  std::vector<SimJob> jobs;
  for (Worker& w : workers) {
    jobs.push_back({w.ctx, [&w, &one_op, per_thread]() {
                      if (w.done >= per_thread / 4) {
                        return StepResult::kDone;
                      }
                      one_op(w);
                      ++w.done;
                      return StepResult::kProgress;
                    }});
  }
  Scheduler::Run(jobs);
  CounterDelta delta(&system->counters());
  Cycles start_max = 0;
  for (Worker& w : workers) {
    w.done = 0;
    w.latency.Reset();
    start_max = std::max(start_max, w.ctx->clock());
  }
  for (Worker& w : workers) {
    w.ctx->AdvanceTo(start_max);
  }
  std::vector<SimJob> measured;
  for (Worker& w : workers) {
    measured.push_back({w.ctx, [&w, &one_op, per_thread]() {
                          if (w.done >= per_thread) {
                            return StepResult::kDone;
                          }
                          one_op(w);
                          ++w.done;
                          return StepResult::kProgress;
                        }});
  }
  const Cycles end = Scheduler::Run(measured);

  Histogram all;
  uint64_t total_ops = 0;
  for (Worker& w : workers) {
    all.Merge(w.latency);
    total_ops += w.done;
  }
  const double seconds =
      static_cast<double>(end - start_max) / (cfg.platform.cpu_ghz * 1e9);
  const double touched =
      static_cast<double>(total_ops) * (cfg.op == "copy" ? kXPLineSize : kCacheLineSize);

  const double mops = static_cast<double>(total_ops) / seconds / 1e6;
  const double gbps = touched / seconds / 1e9;
  point.Printf("op=%s pattern=%s wss=%llu KB stride=%llu threads=%u platform=%s dimms=%u\n",
               cfg.op.c_str(), cfg.pattern.c_str(),
               static_cast<unsigned long long>(cfg.wss / 1024),
               static_cast<unsigned long long>(cfg.stride), cfg.threads,
               cfg.platform.name.c_str(), cfg.dimms);
  point.Printf("latency (cycles): %s\n", all.Summary().c_str());
  point.Printf("throughput: %.2f Mops/s, %.3f GB/s of demanded data\n", mops, gbps);
  const Counters d = delta.Delta();
  point.Printf("counters: %s\n", d.ToString().c_str());
  point.Printf("rap stalls: %llu loads, %llu cycles; wpq stalls: %llu cycles\n",
               static_cast<unsigned long long>(d.rap_stalled_loads),
               static_cast<unsigned long long>(d.rap_stall_cycles),
               static_cast<unsigned long long>(d.wpq_stall_cycles));
  point.AddRow()
      .Set("op", cfg.op)
      .Set("pattern", cfg.pattern)
      .Set("wss_kb", cfg.wss / 1024)
      .Set("threads", cfg.threads)
      .Set("mops", mops)
      .Set("gbps", gbps)
      .Set("rap_stall_cycles", d.rap_stall_cycles)
      .Set("wpq_stall_cycles", d.wpq_stall_cycles);
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: pmemsim_probe [--platform=g1|g2|g2-eadr] [--op=read|write|ntstore|rap|copy]\n"
        "                     [--pattern=seq|rand] [--persist=none|clwb|clwb+mfence]\n"
        "                     [--wss=64M] [--stride=64] [--threads=1] [--ops=100000]\n"
        "                     [--distance=0] [--dimms=1] [--no_prefetch] [--remote]\n"
        "                     (--gen=g1|g2 is accepted as a legacy alias)\n%s",
        pmemsim_bench::kTelemetryFlagsHelp);
    return 0;
  }
  ProbeConfig cfg;
  // --platform selects the preset by name; --gen remains a legacy alias for
  // the two paper testbeds (--platform wins when both are given).
  const std::string gen = flags.Get("gen", "");
  cfg.platform = flags.GetPlatform("platform", gen.empty() ? "g1" : gen);
  cfg.op = flags.GetChoice("op", "read", {"read", "write", "ntstore", "rap", "copy"});
  cfg.pattern = flags.GetChoice("pattern", "rand", {"seq", "rand"});
  cfg.persist = flags.GetChoice("persist", "none", {"none", "clwb", "clwb+mfence"});
  cfg.wss = flags.GetSize("wss", MiB(64));
  cfg.stride = flags.GetPositiveU64("stride", kCacheLineSize);
  cfg.threads = static_cast<uint32_t>(flags.GetPositiveU64("threads", 1));
  cfg.ops = flags.GetU64("ops", 100000);
  cfg.distance = flags.GetU64("distance", 0);
  cfg.dimms = static_cast<uint32_t>(flags.GetU64("dimms", 1));
  if (cfg.wss < cfg.stride) {
    pmemsim_bench::Flags::BadValue("wss", flags.Get("wss", "64M"),
                                   "working set of at least one stride");
  }
  cfg.prefetch = !flags.Has("no_prefetch");
  cfg.remote = flags.Has("remote");
  pmemsim_bench::BenchReport report(flags, "pmemsim_probe");
  pmemsim_bench::SweepRunner runner(flags);
  flags.RejectUnknown();
  runner.Add(cfg.op, [=](pmemsim_bench::SweepPoint& point) { RunProbe(cfg, point); });
  return runner.Finish(report);
}
