#include "tools/crashcheck_lib.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sweep_runner.h"
#include "src/common/config.h"
#include "src/common/random.h"
#include "src/core/system.h"
#include "src/crash/crash_injector.h"
#include "src/crash/persist_tracker.h"
#include "src/crash/recovery_validator.h"
#include "src/crash/workloads.h"

namespace pmemsim_crashcheck {

namespace {

using pmemsim::CrashEventKind;
using pmemsim::CrashEventKindName;
using pmemsim::CrashInjector;
using pmemsim::CrashSignal;
using pmemsim::CrashWorkload;
using pmemsim::CrashWorkloadOptions;
using pmemsim::Cycles;
using pmemsim::Mix64;
using pmemsim::PersistTracker;
using pmemsim::PlatformConfig;
using pmemsim::Rng;
using pmemsim::System;
using pmemsim::ThreadContext;
using pmemsim::ValidationReport;
using pmemsim_bench::BenchReport;
using pmemsim_bench::Flags;
using pmemsim_bench::SweepRunner;

constexpr char kUsage[] =
    "pmemsim_crashcheck: crash-point injection + recovery validation\n"
    "  --store=<name>       cceh|fastfair|flatlog|redo|undo (default cceh)\n"
    "  --platform=<name>    g1|g2|g2-eadr (default g1)\n"
    "  --points=<n>         crash points to sample (default 200)\n"
    "  --seed=<n>           sampling + tear seed (default 7)\n"
    "  --ops=<n>            workload operations (default 2000)\n"
    "  --tear=<mode>        word|subword in-flight tear granularity\n"
    "  --break_persist      drop the cceh commit barrier (self-test: must\n"
    "                       produce violations)\n"
    "  --jobs=<n>           worker threads (output is identical at any -j)\n";

struct PointOutcome {
  bool crashed = false;
  CrashEventKind kind = CrashEventKind::kWpqAccept;
  Cycles crash_cycles = 0;
  uint64_t acked_ops = 0;
  uint64_t checks = 0;
  uint64_t violations = 0;
  PersistTracker::MaterializeResult mat;
  std::string first_message;
};

uint64_t TearSeedFor(uint64_t seed, uint64_t event_index) {
  return Mix64(seed ^ (0x9E3779B97F4A7C15ull * (event_index + 1)));
}

}  // namespace

int RunCrashcheck(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::printf("%s%s", kUsage, pmemsim_bench::kTelemetryFlagsHelp);
    return 0;
  }
  const std::string store = flags.Get("store", "cceh");
  const std::string platform_name = flags.Get("platform", "g1");
  const uint64_t points_requested = flags.GetU64("points", 200);
  const uint64_t seed = flags.GetU64("seed", 7);
  const uint64_t ops = flags.GetU64("ops", 2000);
  const std::string tear = flags.Get("tear", "word");
  const bool break_persist = flags.Has("break_persist");
  BenchReport report(flags, "pmemsim_crashcheck");
  SweepRunner runner(flags);
  flags.RejectUnknown();

  const auto platform_opt = pmemsim::PlatformByName(platform_name);
  if (!platform_opt) {
    Flags::BadValue("platform", platform_name, "g1|g2|g2-eadr");
  }
  const PlatformConfig platform = *platform_opt;
  const auto names = CrashWorkload::StoreNames();
  if (std::find(names.begin(), names.end(), store) == names.end()) {
    Flags::BadValue("store", store, "cceh|fastfair|flatlog|redo|undo");
  }
  PersistTracker::TearGranularity granularity = PersistTracker::TearGranularity::kWord;
  if (tear == "subword") {
    granularity = PersistTracker::TearGranularity::kSubword;
  } else if (tear != "word") {
    Flags::BadValue("tear", tear, "word|subword");
  }

  CrashWorkloadOptions opts;
  opts.ops = ops;
  opts.seed = seed;
  opts.break_persist = break_persist;

  pmemsim_bench::PrintHeader("pmemsim_crashcheck",
                             "durable-image crash injection + recovery validation");
  std::printf("# store=%s platform=%s ops=%llu seed=%llu tear=%s%s\n", store.c_str(),
              platform.name.c_str(), static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(seed), tear.c_str(),
              break_persist ? " break_persist" : "");

  // Calibration: count the crash events one uninterrupted run generates and
  // collect the vulnerable-byte statistics along the way.
  uint64_t total_events = 0;
  uint64_t acked_total = 0;
  PersistTracker::Stats window;
  {
    System system(platform);
    PersistTracker tracker(platform.eadr_enabled);
    tracker.Attach(&system);
    ThreadContext& ctx = system.CreateThread();
    auto workload = CrashWorkload::Create(store, opts);
    workload->Setup(system, ctx);
    CrashInjector counter;
    tracker.StartEvents(&counter);
    workload->Run(ctx);
    total_events = counter.events_seen();
    acked_total = workload->acked_ops();
    window = tracker.stats();
  }

  // Sample distinct event indexes: exhaustive when they fit the budget,
  // otherwise a seeded shuffle (replayable for any --points/--seed pair).
  std::vector<uint64_t> sample;
  sample.reserve(total_events);
  for (uint64_t i = 0; i < total_events; ++i) {
    sample.push_back(i);
  }
  if (points_requested < total_events) {
    Rng rng(Mix64(seed ^ 0xC4A5C4EC));
    rng.Shuffle(sample);
    sample.resize(points_requested);
    std::sort(sample.begin(), sample.end());
  }

  std::printf("# events_total=%llu sampled=%zu acked_ops=%llu\n",
              static_cast<unsigned long long>(total_events), sample.size(),
              static_cast<unsigned long long>(acked_total));
  std::printf("point,event_kind,crash_cycles,acked_ops,inflight_writes,checks,violations\n");

  std::vector<PointOutcome> outcomes(sample.size());
  for (size_t p = 0; p < sample.size(); ++p) {
    const uint64_t event_index = sample[p];
    runner.Add("point" + std::to_string(event_index),
               [&outcomes, p, event_index, platform, store, opts, seed,
                granularity](pmemsim_bench::SweepPoint& point) {
                 PointOutcome out;
                 System system(platform);
                 PersistTracker tracker(platform.eadr_enabled);
                 tracker.Attach(&system);
                 ThreadContext& ctx = system.CreateThread();
                 auto workload = CrashWorkload::Create(store, opts);
                 workload->Setup(system, ctx);
                 CrashInjector injector;
                 injector.Arm(event_index);
                 tracker.StartEvents(&injector);
                 try {
                   workload->Run(ctx);
                 } catch (const CrashSignal&) {
                   out.crashed = true;
                 }
                 ValidationReport rep;
                 if (!out.crashed) {
                   rep.Fail([event_index] {
                     return "crash point " + std::to_string(event_index) + " never fired";
                   });
                 } else {
                   out.kind = injector.fired_kind();
                   out.crash_cycles = injector.crash_now();
                   out.acked_ops = workload->acked_ops();
                   System fresh(platform);
                   out.mat = tracker.Materialize(&fresh.backing(), injector.crash_now(),
                                                 TearSeedFor(seed, event_index), granularity);
                   ThreadContext& vctx = fresh.CreateThread();
                   workload->Validate(fresh, vctx, &rep);
                 }
                 out.checks = rep.checks;
                 out.violations = rep.violations;
                 if (!rep.messages.empty()) {
                   out.first_message = rep.messages.front();
                 }
                 point.Printf("%llu,%s,%llu,%llu,%llu,%llu,%llu\n",
                              static_cast<unsigned long long>(event_index),
                              CrashEventKindName(out.kind),
                              static_cast<unsigned long long>(out.crash_cycles),
                              static_cast<unsigned long long>(out.acked_ops),
                              static_cast<unsigned long long>(out.mat.inflight_writes),
                              static_cast<unsigned long long>(out.checks),
                              static_cast<unsigned long long>(out.violations));
                 point.AddRow()
                     .Set("point", event_index)
                     .Set("event_kind", CrashEventKindName(out.kind))
                     .Set("crash_cycles", out.crash_cycles)
                     .Set("acked_ops", out.acked_ops)
                     .Set("durable_writes", out.mat.durable_writes)
                     .Set("inflight_writes", out.mat.inflight_writes)
                     .Set("torn_writes", out.mat.torn_writes)
                     .Set("checks", out.checks)
                     .Set("violations", out.violations)
                     .Set("first_violation", out.first_message);
                 outcomes[p] = std::move(out);
               });
  }

  const int failed_points = runner.Run(report);

  uint64_t total_violations = 0, total_checks = 0;
  for (const PointOutcome& out : outcomes) {
    total_violations += out.violations;
    total_checks += out.checks;
  }
  std::printf("summary,%s,%s,%zu,%llu,%llu,%llu\n", store.c_str(), platform.name.c_str(),
              sample.size(), static_cast<unsigned long long>(total_checks),
              static_cast<unsigned long long>(total_violations),
              static_cast<unsigned long long>(window.max_vulnerable_bytes));
  report.AddRow()
      .Set("summary", uint64_t{1})
      .Set("store", store)
      .Set("platform", platform.name)
      .Set("tear", tear)
      .Set("ops", ops)
      .Set("seed", seed)
      .Set("break_persist", static_cast<uint64_t>(break_persist ? 1 : 0))
      .Set("events_total", total_events)
      .Set("points", static_cast<uint64_t>(sample.size()))
      .Set("acked_ops", acked_total)
      .Set("total_checks", total_checks)
      .Set("total_violations", total_violations)
      .Set("failed_points", static_cast<uint64_t>(failed_points))
      .Set("max_vulnerable_bytes", window.max_vulnerable_bytes)
      .Set("mean_vulnerable_bytes", window.MeanVulnerableBytes())
      .Set("max_in_cache_bytes", window.max_in_cache_bytes)
      .Set("max_in_wpq_bytes", window.max_in_wpq_bytes);

  const int rc = report.Finish();
  if (failed_points > 0 || total_violations > 0) {
    std::fprintf(stderr, "crashcheck: %llu violation(s) across %zu point(s)\n",
                 static_cast<unsigned long long>(total_violations), sample.size());
    return 1;
  }
  return rc;
}

}  // namespace pmemsim_crashcheck
