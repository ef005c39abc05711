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
#include "src/crash/crash_injector.h"
#include "src/crash/persist_tracker.h"
#include "src/crash/workloads.h"

namespace pmemsim_crashcheck {

namespace {

using pmemsim::CrashCalibration;
using pmemsim::CrashEventKindName;
using pmemsim::CrashPointResult;
using pmemsim::CrashWorkload;
using pmemsim::CrashWorkloadOptions;
using pmemsim::Mix64;
using pmemsim::PersistTracker;
using pmemsim::PlatformConfig;
using pmemsim::Rng;
using pmemsim_bench::Flags;
using pmemsim_bench::Row;
using pmemsim_bench::SweepRunner;

// Validation totals of one chunk of the sample.
struct ChunkTotals {
  uint64_t checks = 0;
  uint64_t violations = 0;
};

// One crash point's row.
Row PointRow(const CrashPointResult& r) {
  return Row()
      .Set("point", r.event)
      .Set("event_kind", CrashEventKindName(r.kind))
      .Set("crash_cycles", r.crash_now)
      .Set("acked_ops", r.acked_ops)
      .Set("durable_writes", r.mat.durable_writes)
      .Set("inflight_writes", r.mat.inflight_writes)
      .Set("torn_writes", r.mat.torn_writes)
      .Set("checks", r.report.checks)
      .Set("violations", r.report.violations)
      .Set("first_violation",
           r.report.messages.empty() ? std::string() : r.report.messages.front());
}

}  // namespace

int RunCrashcheck(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(
      argc, argv, "pmemsim_crashcheck",
      "Crash-point injection + recovery validation: --points crash points sampled by\n"
      "--seed (which also seeds the tears) from --ops workload operations; --tear is the\n"
      "in-flight tear granularity. --break_persist drops the cceh commit barrier\n"
      "(self-test: must produce violations).");
  const Flags& flags = sweep.flags();
  CrashWorkloadOptions opts;
  const std::string store = flags.GetChoice("store", "cceh", CrashWorkload::StoreNames());
  const PlatformConfig platform = flags.GetPlatform("platform", "g1");
  const uint64_t points_requested = flags.GetPositiveU64("points", 200);
  opts.seed = flags.GetU64("seed", opts.seed);
  opts.ops = flags.GetPositiveU64("ops", opts.ops);
  const std::string tear = flags.GetChoice("tear", "word", {"word", "subword"});
  opts.break_persist = flags.Has("break_persist");
  SweepRunner& runner =
      sweep.Start("pmemsim_crashcheck", "durable-image crash injection + recovery validation",
                  {"point", "event_kind", "crash_cycles", "acked_ops", "durable_writes",
                   "inflight_writes", "torn_writes", "checks", "violations", "first_violation"});

  const PersistTracker::TearGranularity granularity =
      tear == "subword" ? PersistTracker::TearGranularity::kSubword
                        : PersistTracker::TearGranularity::kWord;

  // Calibration: count the crash events one uninterrupted run generates and
  // collect the vulnerable-byte statistics along the way.
  const CrashCalibration cal = pmemsim::CalibrateCrashWorkload(platform, store, opts);

  // Sample distinct event indexes: exhaustive when they fit the budget,
  // otherwise a seeded shuffle (replayable for any --points/--seed pair).
  std::vector<uint64_t> sample;
  sample.reserve(cal.events);
  for (uint64_t i = 0; i < cal.events; ++i) {
    sample.push_back(i);
  }
  if (points_requested < cal.events) {
    Rng rng(Mix64(opts.seed ^ 0xC4A5C4EC));
    rng.Shuffle(sample);
    sample.resize(points_requested);
    std::sort(sample.begin(), sample.end());
  }

  // One pass per chunk: --jobs contiguous slices of the sorted sample, each
  // a sweep point, so rows still come out in sample order at any --jobs.
  const size_t chunks = std::min<size_t>(runner.jobs(), sample.size());
  std::vector<ChunkTotals> totals(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    const std::vector<uint64_t> events(sample.begin() + c * sample.size() / chunks,
                                       sample.begin() + (c + 1) * sample.size() / chunks);
    runner.Add("points" + std::to_string(events.front()) + "-" + std::to_string(events.back()),
               [&totals, c, events, platform, store, opts,
                granularity](pmemsim_bench::SweepPoint& point) {
                 ChunkTotals sum;
                 pmemsim::RunCrashPoints(platform, store, opts, events, opts.seed, granularity,
                                         [&](const CrashPointResult& r) {
                                           sum.checks += r.report.checks;
                                           sum.violations += r.report.violations;
                                           point.Emit(PointRow(r));
                                         });
                 totals[c] = sum;  // a failed chunk contributes no rows and no totals
               });
  }

  const int failed_points = runner.Run(sweep.report());

  uint64_t total_violations = 0, total_checks = 0;
  for (const ChunkTotals& sum : totals) {
    total_violations += sum.violations;
    total_checks += sum.checks;
  }
  pmemsim_bench::BenchReport& report = sweep.report();
  report.DeclareColumns({"summary", "store", "platform", "tear", "ops", "seed", "break_persist",
                         "events_total", "points", "acked_ops", "total_checks",
                         "total_violations", "failed_points", "max_vulnerable_bytes",
                         "mean_vulnerable_bytes", "max_in_cache_bytes", "max_in_wpq_bytes"});
  report.Emit(Row()
                  .Set("summary", uint64_t{1})
                  .Set("store", store)
                  .Set("platform", platform.name)
                  .Set("tear", tear)
                  .Set("ops", opts.ops)
                  .Set("seed", opts.seed)
                  .Set("break_persist", static_cast<uint64_t>(opts.break_persist ? 1 : 0))
                  .Set("events_total", cal.events)
                  .Set("points", static_cast<uint64_t>(sample.size()))
                  .Set("acked_ops", cal.acked_ops)
                  .Set("total_checks", total_checks)
                  .Set("total_violations", total_violations)
                  .Set("failed_points", static_cast<uint64_t>(failed_points))
                  .Set("max_vulnerable_bytes", cal.window.max_vulnerable_bytes)
                  .Set("mean_vulnerable_bytes", cal.window.MeanVulnerableBytes(), 1)
                  .Set("max_in_cache_bytes", cal.window.max_in_cache_bytes)
                  .Set("max_in_wpq_bytes", cal.window.max_in_wpq_bytes));

  const int rc = sweep.Finish();
  if (total_violations > 0) {
    std::fprintf(stderr, "crashcheck: %llu violation(s) across %zu point(s)\n",
                 static_cast<unsigned long long>(total_violations), sample.size());
    return 1;
  }
  return rc;
}

}  // namespace pmemsim_crashcheck
