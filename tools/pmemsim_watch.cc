// pmemsim_watch — `ipmwatch` for the simulated machine.
//
// Runs a named workload and streams one row per sampling interval of
// simulated time, the way the paper watches the real DIMM's media/controller
// counters tick once per second: per-interval iMC and media traffic, the
// derived RA/WA amplifications, buffer hit ratios, occupancy gauges, and
// stall totals. The closing `total` row plus an exact delta-sum check against
// the global counters make the series trustworthy as a partition of the run.
//
//   $ pmemsim_watch --workload=seq_store --platform=g1 --sample_interval_cycles=20000
//   $ pmemsim_watch --workload=rand_load --wss=64M --threads=4 --breakdown
//   $ pmemsim_watch --workload=ntstore --samples_json=samples.json --stats_json=stats.json
//
// --breakdown additionally attaches the per-access latency attributor and
// prints the critical-path table at the end of the run.
//
// --serve_timeline=<path> switches to viewer mode: instead of running a
// workload, renders a pmemsim_serve --timeline_json artifact as per-window
// tables (throughput, sheds, queue depth, windowed tails, SLO verdicts) — the
// same at-a-glance view this tool gives the memory plane, for the request
// plane.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/buffer_probes.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/trace/attribution.h"
#include "src/trace/json.h"
#include "src/trace/sampler.h"

namespace {

using namespace pmemsim;

using pmemsim_bench::AccessOp;
using pmemsim_bench::AccessPattern;

// Each --workload names a fixed access-kernel pattern; --distance sets rap's.
struct Workload {
  const char* name;
  pmemsim_bench::AccessSpec spec;
};
const Workload kWorkloads[] = {
    {"seq_load", {AccessOp::kLoadLine, AccessPattern::kSeq}},
    {"rand_load", {AccessOp::kLoadLine, AccessPattern::kRand}},
    {"seq_store", {AccessOp::kPersist, AccessPattern::kSeq, PersistMode::kClwbSfence}},
    {"rand_store", {AccessOp::kPersist, AccessPattern::kRand, PersistMode::kClwbSfence}},
    {"ntstore", {AccessOp::kPersist, AccessPattern::kSeq, PersistMode::kNtStoreSfence}},
    {"rap", {AccessOp::kRap, AccessPattern::kRand, PersistMode::kClwbMfence}},
};

// The defaults below are the flags' defaults: main() reads each flag with its
// field as the default.
struct WatchConfig {
  PlatformConfig platform;
  std::string workload = "seq_store";
  pmemsim_bench::AccessSpec spec;  // the workload's pattern, with --distance
  uint64_t wss = MiB(4);
  uint64_t stride = kCacheLineSize;
  uint32_t threads = 1;
  uint64_t ops = 200000;
  uint32_t dimms = 1;
  Cycles interval = 20000;
  bool breakdown = false;
  bool quiet = false;  // suppress per-interval rows (CI smoke with huge runs)
};

void PrintColumns() {
  std::printf("%8s %12s %10s %10s %10s %10s %6s %6s %7s %7s %6s %7s %7s %9s %5s\n",
              "interval", "t_end", "imc_rd_B", "imc_wr_B", "med_rd_B", "med_wr_B", "RA", "WA",
              "rb_hit", "wb_hit", "wpq", "rb_ent", "wb_ent", "rap_cyc", "pwb");
}

void PrintRow(const Sample& s) {
  const Counters& d = s.delta;
  char tag[24];
  if (s.partial) {
    std::snprintf(tag, sizeof(tag), "%" PRIu64 "*", s.index);
  } else {
    std::snprintf(tag, sizeof(tag), "%" PRIu64, s.index);
  }
  std::printf("%8s %12" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64
              " %6.2f %6.2f %6.1f%% %6.1f%% %6.1f %7" PRIu64 " %7" PRIu64 " %9" PRIu64
              " %5" PRIu64 "\n",
              tag, static_cast<uint64_t>(s.t_end), d.imc_read_bytes, d.imc_write_bytes,
              d.media_read_bytes, d.media_write_bytes, d.ReadAmplification(),
              d.WriteAmplification(), 100.0 * d.ReadBufferHitRatio(),
              100.0 * d.WriteBufferHitRatio(), s.gauges.wpq_occupancy,
              s.gauges.read_buffer_entries, s.gauges.write_buffer_entries, d.rap_stall_cycles,
              d.periodic_writebacks);
}

void PrintTotals(Cycles end, const Counters& d) {
  std::printf("%8s %12" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64
              " %6.2f %6.2f %6.1f%% %6.1f%% %6s %7s %7s %9" PRIu64 " %5" PRIu64 "\n",
              "total", static_cast<uint64_t>(end), d.imc_read_bytes, d.imc_write_bytes,
              d.media_read_bytes, d.media_write_bytes, d.ReadAmplification(),
              d.WriteAmplification(), 100.0 * d.ReadBufferHitRatio(),
              100.0 * d.WriteBufferHitRatio(), "-", "-", "-", d.rap_stall_cycles,
              d.periodic_writebacks);
}

// One cell of a windowed-quantile column: "-" when the window saw no
// completions (the artifact stores null).
const char* QuantileCell(const JsonValue& win, const char* key, char* buf, size_t n) {
  const JsonValue* q = win.Find(key);
  if (q == nullptr || q->type == JsonValue::Type::kNull) {
    return "-";
  }
  std::snprintf(buf, n, "%" PRIu64, q->AsUint());
  return buf;
}

// Viewer mode: renders the global per-window series of every point in a
// pmemsim_serve --timeline_json artifact. Returns a process exit code.
int ViewServeTimeline(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  JsonValue root;
  std::string error;
  if (!JsonValue::Parse(text, &root, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const JsonValue* points = root.Find("points");
  if (points == nullptr || points->type != JsonValue::Type::kArray) {
    std::fprintf(stderr, "error: %s: not a pmemsim_serve timeline artifact\n", path.c_str());
    return 1;
  }

  for (const JsonValue& point : points->array) {
    if (point.type != JsonValue::Type::kObject) {
      std::printf("# point: <failed before flush>\n");
      continue;
    }
    const JsonValue* cfg = point.Find("config");
    const JsonValue* global = point.Find("global");
    const JsonValue* totals = point.Find("totals");
    if (cfg == nullptr || global == nullptr || global->Find("windows") == nullptr ||
        totals == nullptr || point.Find("end") == nullptr) {
      std::fprintf(stderr, "error: %s: point missing required timeline fields\n", path.c_str());
      return 1;
    }
    const JsonValue* truncated = point.Find("truncated");
    std::printf("# point mix=%s loop=%s store=%s engine=%s shards=%" PRIu64
                " interval=%" PRIu64 "%s\n",
                cfg->Find("mix")->string.c_str(), cfg->Find("loop")->string.c_str(),
                cfg->Find("store")->string.c_str(), cfg->Find("engine")->string.c_str(),
                cfg->Find("shards")->AsUint(), cfg->Find("interval_cycles")->AsUint(),
                truncated != nullptr && truncated->boolean ? " TRUNCATED" : "");
    if (const JsonValue* slo = point.Find("slo")) {
      std::printf("# slo p99<=%" PRIu64 ": %" PRIu64 "/%" PRIu64
                  " windows in violation (burn rate %.3f)\n",
                  cfg->Find("slo_p99_cycles")->AsUint(), slo->Find("violations")->AsUint(),
                  slo->Find("windows_with_traffic")->AsUint(),
                  slo->Find("burn_rate")->AsDouble());
    }
    std::printf("%8s %12s %9s %9s %6s %6s %9s %9s %9s %4s\n", "window", "t_end", "completed",
                "admitted", "shed", "depth", "p50", "p99", "p999", "slo");
    const JsonValue* windows = global->Find("windows");
    for (const JsonValue& win : windows->array) {
      char tag[24], p50[24], p99[24], p999[24];
      std::snprintf(tag, sizeof(tag), "%" PRIu64 "%s", win.Find("index")->AsUint(),
                    win.Find("partial")->boolean ? "*" : "");
      const JsonValue* viol = win.Find("slo_violation");
      std::printf("%8s %12" PRIu64 " %9" PRIu64 " %9" PRIu64 " %6" PRIu64 " %6" PRIu64
                  " %9s %9s %9s %4s\n",
                  tag, win.Find("t_end")->AsUint(), win.Find("completed")->AsUint(),
                  win.Find("admitted")->AsUint(), win.Find("shed")->AsUint(),
                  win.Find("queue_depth")->AsUint(),
                  QuantileCell(win, "sojourn_p50", p50, sizeof(p50)),
                  QuantileCell(win, "sojourn_p99", p99, sizeof(p99)),
                  QuantileCell(win, "sojourn_p999", p999, sizeof(p999)),
                  viol == nullptr ? "-" : (viol->boolean ? "VIOL" : "ok"));
    }
    std::printf("%8s %12" PRIu64 " %9" PRIu64 " %9" PRIu64 " %6" PRIu64 "\n", "total",
                point.Find("end")->AsUint(), totals->Find("completed")->AsUint(),
                totals->Find("admitted")->AsUint(), totals->Find("shed")->AsUint());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Flags flags(
      argc, argv,
      "--serve_timeline=<path> renders a pmemsim_serve --timeline_json artifact instead of\n"
      "running a workload, and then takes no other flag.\n"
      "--samples_json=<path> writes the interval series as JSON.");

  // Viewer mode: no workload run, just render the serve timeline artifact.
  const std::string serve_timeline = flags.Get("serve_timeline", "");
  if (!serve_timeline.empty()) {
    flags.RejectUnknown();
    return ViewServeTimeline(serve_timeline);
  }

  WatchConfig cfg;
  cfg.platform = flags.GetPlatform("platform", "g1");
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) {
    names.push_back(w.name);
  }
  cfg.workload = flags.GetChoice("workload", cfg.workload, names);
  for (const Workload& w : kWorkloads) {
    if (cfg.workload == w.name) {
      cfg.spec = w.spec;
    }
  }
  cfg.wss = flags.GetSize("wss", cfg.wss);
  cfg.stride = flags.GetU64("stride", cfg.stride);
  cfg.threads = flags.GetPositiveU32("threads", cfg.threads);
  cfg.ops = flags.GetPositiveU64("ops", cfg.ops);
  cfg.spec.distance = flags.GetU64("distance", 4);
  cfg.dimms = flags.GetU32("dimms", cfg.dimms);
  cfg.interval = flags.GetPositiveU64("sample_interval_cycles", cfg.interval);
  cfg.breakdown = flags.Has("breakdown");
  cfg.quiet = flags.Has("quiet");
  if (cfg.stride < kCacheLineSize) {
    pmemsim_bench::Flags::BadValue("stride", std::to_string(cfg.stride),
                                   "at least one cacheline (64)");
  }
  if (cfg.wss < cfg.stride) {
    pmemsim_bench::Flags::BadValue("wss", std::to_string(cfg.wss),
                                   "working set of at least one stride");
  }
  const std::string samples_path = flags.Get("samples_json", "");
  pmemsim_bench::BenchReport report(flags, "pmemsim_watch");
  flags.RejectUnknown();

  auto system = std::make_unique<System>(cfg.platform, cfg.dimms);
  AttributionCollector attribution;
  if (cfg.breakdown) {
    system->SetAttribution(&attribution);
  }

  const PmRegion region = system->AllocatePm(cfg.wss, kXPLineSize);
  std::vector<pmemsim_bench::AccessWorker> workers(cfg.threads);
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    workers[t].ctx = &system->CreateThread(0);
    workers[t].rng = Rng(0x3A7C + t * 0x51ED);
  }
  const pmemsim_bench::AccessKernel kernel{cfg.spec, region, cfg.stride};

  // The sampler and the cross-check delta snapshot the same (zero) state, so
  // SumOfDeltas() must reproduce the global delta field-for-field.
  Sampler sampler(&system->counters(), cfg.interval);
  CounterDelta global_delta(&system->counters());
  sampler.SetGaugeSource([&system](Cycles now) { return system->ReadGauges(now); });
  if (!cfg.quiet) {
    std::printf("# pmemsim_watch workload=%s platform=%s dimms=%u threads=%u wss=%" PRIu64
                "K interval=%" PRIu64 " cycles\n",
                cfg.workload.c_str(), cfg.platform.name.c_str(), cfg.dimms, cfg.threads,
                cfg.wss / 1024, static_cast<uint64_t>(cfg.interval));
    PrintColumns();
    sampler.SetOnSample(PrintRow);
  }

  const Cycles end = pmemsim_bench::RunWorkers(
      workers, pmemsim_bench::SplitOps(cfg.ops, cfg.threads), kernel, &sampler);
  sampler.Finalize(end);

  const Counters global = global_delta.Delta();
  const Counters sum = sampler.SumOfDeltas();
  if (!cfg.quiet) {
    PrintTotals(end, global);
  }
  const bool conserved = sum == global && sampler.dropped_samples() == 0;
  std::printf("# %" PRIu64 " samples over %" PRIu64 " cycles; delta-sum check: %s\n",
              static_cast<uint64_t>(sampler.samples().size()), static_cast<uint64_t>(end),
              conserved ? "OK" : "MISMATCH");
  if (!conserved) {
    std::fprintf(stderr, "error: interval deltas do not sum to the global counters\n");
    std::fprintf(stderr, "  global: %s\n  summed: %s\n", global.ToString().c_str(),
                 sum.ToString().c_str());
  }

  uint64_t ops = 0;
  for (const pmemsim_bench::AccessWorker& w : workers) {
    ops += w.done;
  }
  report.DeclareColumns({"workload", "platform", "threads", "ops", "interval_cycles", "samples",
                         "end_cycles", "wa", "ra"});
  report.Emit(pmemsim_bench::Row()
                  .Set("workload", cfg.workload)
                  .Set("platform", cfg.platform.name)
                  .Set("threads", cfg.threads)
                  .Set("ops", ops)
                  .Set("interval_cycles", static_cast<uint64_t>(cfg.interval))
                  .Set("samples", static_cast<uint64_t>(sampler.samples().size()))
                  .Set("end_cycles", static_cast<uint64_t>(end))
                  .Set("wa", global.WriteAmplification(), 3)
                  .Set("ra", global.ReadAmplification(), 3));

  if (cfg.breakdown) {
    std::printf("\n%s", attribution.CriticalPathTable().c_str());
    report.AddSection("attribution", attribution.ToJson());
  }

  report.AddCounters("global_delta", global);
  const bool samples_ok =
      samples_path.empty() || pmemsim_bench::WriteFile(samples_path, sampler.ToJson());
  const int rc = report.Finish();
  return conserved && samples_ok ? rc : 1;
}
