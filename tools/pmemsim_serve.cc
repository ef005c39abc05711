// pmemsim_serve — the sharded KV request-serving tier.
//
// Stands up N shards (each its own datastore instance with M worker threads
// and a bounded admission queue) on one shared simulated machine per
// configuration (or one machine per shard with --engine_threads),
// drives YCSB core mixes from closed-loop (fixed clients, exponential think)
// or open-loop (Poisson arrivals) client populations, and reports throughput
// plus exact-rank p50/p99/p999 sojourn tails per shard and globally. The
// per-shard memory-side decomposition (media/buffer/RAP/WPQ) comes from the
// attribution layer and lands in the --stats_json "serve" section.
//
//   $ pmemsim_serve --store=fastfair --mixes=a,b --loop=both --shards=4
//   $ pmemsim_serve --store=cceh --mixes=a --loop=open --arrival_interval=300
//       --queue_depth=16 --stats_json=serve.json
//
// Each (mix, loop) combination is one sweep point with its own System and
// seed-derived randomness, so --jobs=N parallelism keeps stdout and the JSON
// report byte-identical to a serial run.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sweep_runner.h"
#include "src/core/platform.h"
#include "src/serve/domain_tier.h"
#include "src/serve/tier.h"
#include "src/trace/json.h"
#include "src/trace/serve_metrics.h"
#include "src/workload/ycsb.h"

namespace {

using namespace pmemsim;

struct ServeCliConfig {
  PlatformConfig platform;
  uint32_t dimms = 0;  // 0 = one DIMM per shard (shared System) / per domain (partitioned)
  ServeConfig serve;
  std::vector<std::string> mixes;
  std::vector<LoopMode> loops;
  bool partitioned = false;  // --engine_threads present: one System per shard domain
  // Serve observability (all off by default: the hot path pays nothing).
  Cycles sample_interval = 0;     // telemetry window width; 0 = windowing off
  uint64_t slo_p99 = 0;           // per-window p99 SLO threshold; 0 = monitor off
  std::string timeline_path;      // --timeline_json artifact
  std::string spans_path;         // --spans_json compact columnar span export
  bool observe = false;           // any of the above requested
};

void EmitScope(pmemsim_bench::SweepPoint& point, const ServeCliConfig& cli, const ServeConfig& cfg,
               const std::string& scope, const ServiceStats& stats, Cycles serve_start) {
  point.Emit(pmemsim_bench::Row()
                 .Set("mix", cfg.mix_name)
                 .Set("loop", LoopModeName(cfg.loop))
                 .Set("store", StoreName(cfg.store))
                 .Set("scope", scope)
                 .Set("shards", cfg.shards)
                 .Set("workers_per_shard", cfg.workers_per_shard)
                 .Set("ops_per_sec", stats.OpsPerSec(cli.platform.cpu_ghz, serve_start), 0)
                 .Set("sojourn_p50", stats.sojourn.Quantile(0.50))
                 .Set("sojourn_p99", stats.sojourn.Quantile(0.99))
                 .Set("sojourn_p999", stats.sojourn.Quantile(0.999))
                 .Set("offered", stats.offered)
                 .Set("rejected", stats.rejected)
                 .Set("completed", stats.completed));
}

void RunPoint(const ServeCliConfig& cli, const ServeConfig& cfg, pmemsim_bench::SweepPoint& point,
              std::string* serve_json, ServeTimeline* timeline) {
  const auto serve = [&](DomainTier& tier) {
    tier.AttachTimeline(timeline);
    tier.Run();
    EmitScope(point, cli, cfg, "global", tier.GlobalStats(), tier.serve_start());
    for (const auto& domain : tier.domains()) {
      char scope[16];
      std::snprintf(scope, sizeof(scope), "shard%u", domain->index());
      EmitScope(point, cli, cfg, scope, domain->stats(), tier.serve_start());
    }
    *serve_json = tier.ToJson();
  };
  if (cli.partitioned) {
    // One System per shard domain; --dimms counts DIMMs per domain here.
    DomainTier tier(cli.platform, cli.dimms != 0 ? cli.dimms : 1, cfg);
    serve(tier);
  } else {
    // Every shard domain on one System, one DIMM per shard by default.
    System system(cli.platform, cli.dimms != 0 ? cli.dimms : cfg.shards);
    ServiceTier tier(&system, cfg);
    serve(tier);
  }
}

// The --help prose after the generated flag list.
constexpr char kNotes[] =
    "serve observability (off by default; the serve hot path pays nothing):\n"
    "  --sample_interval_cycles=C  windowed serve telemetry: per-C-cycle\n"
    "                      throughput/shed/queue-depth/windowed tails\n"
    "  --timeline_json=<path>  write the per-window timeline artifact\n"
    "                      (enables windowing at a default window width)\n"
    "  --slo_p99_cycles=C  per-window p99 sojourn SLO monitor (violations +\n"
    "                      burn rate in the timeline and a 'slo' stats\n"
    "                      section); requires windowing\n"
    "  --spans_json=<path>  per-request spans, columnar JSON (single sweep\n"
    "                      point only: one mix x one loop)\n"
    "parallelism (two independent axes; both keep output byte-identical):\n"
    "  --jobs=N            ACROSS sweep points: run N (mix,loop) points\n"
    "                      concurrently, each on its own simulated machine\n"
    "  --engine_threads=N  WITHIN one sweep point: give every shard domain\n"
    "                      its own simulated machine (default: all shards\n"
    "                      share one) and advance the domains on N host\n"
    "                      threads. Changes the simulated model (private\n"
    "                      machines + client dispatch latency), never the\n"
    "                      results for a given model: any N compares equal\n"
    "  --dispatch_latency=C  with --engine_threads only: client->shard\n"
    "                      dispatch latency in cycles (the epoch window;\n"
    "                      0 = one lockstep run, no host parallelism)";

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "pmemsim_serve", kNotes);
  const pmemsim_bench::Flags& flags = sweep.flags();

  // A flag that fills a field takes the field's initializer (ServeConfig's or
  // ServeCliConfig's) as its default.
  ServeCliConfig cli;
  cli.platform = flags.GetPlatform("platform", "g1");
  cli.dimms = flags.GetU32("dimms", cli.dimms);
  const std::string store =
      flags.GetChoice("store", StoreName(cli.serve.store), {"cceh", "fastfair", "flatlog"});
  cli.serve.store = *StoreByName(store);

  cli.mixes = flags.GetList("mixes", "a,b,c,d,e,f");
  for (const std::string& mix : cli.mixes) {
    if (!MixByName(mix)) {
      pmemsim_bench::Flags::BadValue("mixes", mix, "YCSB core mix a..f");
    }
  }

  const std::string loop = flags.GetChoice("loop", "both", {"closed", "open", "both"});
  if (loop != "open") {
    cli.loops.push_back(LoopMode::kClosed);
  }
  if (loop != "closed") {
    cli.loops.push_back(LoopMode::kOpen);
  }

  ServeConfig& cfg = cli.serve;
  cfg.shards = flags.GetPositiveU32("shards", cfg.shards);
  cfg.workers_per_shard = flags.GetPositiveU32("workers", cfg.workers_per_shard);
  cfg.queue_depth = flags.GetPositiveU64("queue_depth", cfg.queue_depth);
  cfg.batch = flags.GetPositiveU64("batch", cfg.batch);
  cfg.clients = flags.GetU32("clients", cfg.clients);
  cfg.think_cycles = flags.GetDouble("think", cfg.think_cycles);
  cfg.interarrival_cycles = flags.GetDouble("arrival_interval", cfg.interarrival_cycles);
  cfg.ops = flags.GetU64("ops", cfg.ops);
  cfg.keys = flags.GetPositiveU64("keys", cfg.keys);
  cfg.theta = flags.GetDouble("theta", cfg.theta);
  cfg.scan_len = flags.GetU32("scan_len", cfg.scan_len);
  cfg.seed = flags.GetU64("seed", cfg.seed);

  // --engine_threads gives every shard domain a private System; its value is
  // host threads per sweep point, and without it all shards share one
  // System. --dispatch_latency belongs to that configuration's simulated
  // model, so it is rejected without --engine_threads.
  cli.partitioned = !flags.Get("engine_threads", "").empty();
  cfg.engine_threads = flags.GetPositiveU32("engine_threads", cfg.engine_threads);
  cfg.dispatch_latency = flags.GetU64("dispatch_latency", cfg.dispatch_latency);
  if (!cli.partitioned && !flags.Get("dispatch_latency", "").empty()) {
    pmemsim_bench::Flags::BadValue("dispatch_latency", flags.Get("dispatch_latency", ""),
                                   "--engine_threads to be set (private-System domains only)");
  }

  // Serve observability: any of the flags below switches the timeline on for
  // every sweep point. --timeline_json / span export imply windowing with a
  // default interval; --slo_p99_cycles is meaningless without windows.
  cli.sample_interval = flags.GetU64("sample_interval_cycles", cli.sample_interval);
  cli.slo_p99 = flags.GetU64("slo_p99_cycles", cli.slo_p99);
  cli.timeline_path = flags.Get("timeline_json", cli.timeline_path);
  cli.spans_path = flags.Get("spans_json", cli.spans_path);
  cli.observe = cli.sample_interval > 0 || !cli.timeline_path.empty() || !cli.spans_path.empty();
  if (cli.slo_p99 > 0 && !cli.observe) {
    pmemsim_bench::Flags::BadValue(
        "slo_p99_cycles", std::to_string(cli.slo_p99),
        "windowing to be enabled (--timeline_json or --sample_interval_cycles)");
  }
  if (cli.observe && cli.sample_interval == 0) {
    cli.sample_interval = 20000;  // default telemetry window
  }
  if (!cli.spans_path.empty() && cli.mixes.size() * cli.loops.size() != 1) {
    pmemsim_bench::Flags::BadValue("spans_json", cli.spans_path,
                                   "a single sweep point (one mix, --loop=closed|open)");
  }

  pmemsim_bench::SweepRunner& runner = sweep.Start(
      "pmemsim_serve", "sharded KV serving tier: YCSB mixes, admission, tail latency",
      {"mix", "loop", "store", "scope", "shards", "workers_per_shard", "ops_per_sec",
       "sojourn_p50", "sojourn_p99", "sojourn_p999", "offered", "rejected", "completed"});

  // One sweep point per (mix, loop): its own System, deterministic per seed.
  // Per-point tier JSON lands in a pre-sized slot so --jobs parallelism keeps
  // the assembled "serve" section in submission order. Timelines live here in
  // main's frame, so a failed point's timeline outlives the point and is
  // closed below like every other.
  const size_t n_points = cli.mixes.size() * cli.loops.size();
  std::vector<std::string> serve_sections(n_points);
  std::vector<std::unique_ptr<ServeTimeline>> timelines(cli.observe ? n_points : 0);
  size_t index = 0;
  for (const std::string& mix : cli.mixes) {
    for (const LoopMode mode : cli.loops) {
      ServeConfig point_cfg = cli.serve;
      point_cfg.mix_name = mix;
      point_cfg.mix = *MixByName(mix);
      point_cfg.loop = mode;
      std::string* slot = &serve_sections[index];
      ServeTimeline* timeline = nullptr;
      if (cli.observe) {
        timelines[index] = std::make_unique<ServeTimeline>(
            TimelineConfigFor(point_cfg, cli.partitioned, cli.sample_interval, cli.slo_p99));
        if (!cli.spans_path.empty()) {
          timelines[index]->EnableSpans();
        }
        timeline = timelines[index].get();
      }
      ++index;
      const std::string label = "mix-" + mix + "/" + LoopModeName(mode);
      runner.Add(label, [&cli, point_cfg, slot, timeline](pmemsim_bench::SweepPoint& point) {
        RunPoint(cli, point_cfg, point, slot, timeline);
      });
    }
  }

  runner.Run(sweep.report());
  // A point that failed before its tier finalized the timeline (even one that
  // failed before attaching it) is closed here, truncated at its last
  // observed event and marked so; a finalized timeline is left as it is.
  for (const std::unique_ptr<ServeTimeline>& timeline : timelines) {
    timeline->FlushTruncated();
  }
  pmemsim_bench::BenchReport& report = sweep.report();
  pmemsim::JsonWriter serve;
  serve.BeginArray();
  for (const std::string& section : serve_sections) {
    if (section.empty()) {
      serve.Null();  // failed point: row carries the error, keep indexes stable
    } else {
      serve.Raw(section);
    }
  }
  serve.EndArray();
  report.AddSection("serve", serve.str());

  int io_rc = 0;
  if (cli.slo_p99 > 0) {
    // SLO summary per point, mirrored into the stats report so the monitor is
    // visible without parsing the full timeline artifact.
    pmemsim::JsonWriter slo;
    slo.BeginArray();
    for (const std::unique_ptr<ServeTimeline>& timeline : timelines) {
      const ServeTimeline::Config& tc = timeline->config();
      slo.BeginObject();
      slo.Key("mix").Value(tc.mix);
      slo.Key("loop").Value(tc.loop);
      slo.Key("slo_p99_cycles").Value(tc.slo_p99_cycles);
      timeline->Slo().WriteFields(slo);
      slo.EndObject();
    }
    slo.EndArray();
    report.AddSection("slo", slo.str());
  }
  if (!cli.timeline_path.empty()) {
    pmemsim::JsonWriter timeline;
    timeline.BeginObject();
    timeline.Key("schema_version").Value(uint64_t{1});
    timeline.Key("bench").Value("pmemsim_serve");
    timeline.Key("points").BeginArray();
    for (const std::unique_ptr<ServeTimeline>& point : timelines) {
      point->ToJson(timeline);
    }
    timeline.EndArray();
    timeline.EndObject();
    if (!pmemsim_bench::WriteFile(cli.timeline_path, timeline.str())) {
      io_rc = 1;
    }
  }
  if (!cli.spans_path.empty() &&
      !pmemsim_bench::WriteFile(cli.spans_path, timelines[0]->SpansToJson())) {
    io_rc = 1;
  }

  const int rc = sweep.Finish();
  return rc != 0 ? rc : io_rc;
}
