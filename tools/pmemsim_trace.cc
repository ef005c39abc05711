// pmemsim_trace: record, replay, and inspect .pmtrace operation traces.
//
//   pmemsim_trace record --scenario=<name> --out=<file.pmtrace> [...]
//   pmemsim_trace replay --in=<file.pmtrace> [--stats_json=<path>] [--jobs=N]
//   pmemsim_trace info   --in=<file.pmtrace>
//
// Scenarios (one sweep point = one trace segment = one System run):
//   fig04              random partial nt-stores vs WSS (the Figure 4 loop)
//   log_store          persistent log append with rotating commit counters
//   circular_writes    Raft-style circular log rewrites
//   cacheline_versions per-cacheline version stamping
//
// The determinism contract: `replay` of a recorded file reproduces the
// recording run's --stats_json byte-for-byte, at any --jobs level on either
// side. Both paths build their stats rows through the same EmitRow code from
// the same inputs (segment metadata + counter snapshots at markers + final
// counters + end clock), and the replayer verifies every op's clock against
// the recorded stream, so a divergence fails loudly rather than producing
// subtly different rows.
//
// Exit codes: 0 success, 1 replay divergence or point failure, 2 usage error
// or unreadable/invalid/mismatched trace file.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/core/platform.h"
#include "src/cpu/scheduler.h"
#include "src/trace/recorder.h"
#include "src/trace/replayer.h"
#include "src/workload/log_patterns.h"

namespace {

using namespace pmemsim;

using Meta = std::vector<std::pair<std::string, std::string>>;

uint64_t MetaU64(const TraceSegment& seg, const std::string& key) {
  const std::string* v = seg.FindMeta(key);
  if (v == nullptr) {
    throw std::runtime_error("segment '" + seg.label + "' missing metadata key '" + key + "'");
  }
  return std::strtoull(v->c_str(), nullptr, 10);
}

std::string MetaStr(const TraceSegment& seg, const std::string& key) {
  const std::string* v = seg.FindMeta(key);
  return v == nullptr ? std::string() : *v;
}

// Counter snapshots gathered identically by the record and replay paths.
struct Snapshots {
  std::vector<Counters> at_marker;
  Counters final_counters;
  Cycles end_clock = 0;
  uint64_t records = 0;
};

// ---------------------------------------------------------------------------
// Scenario execution (record side). Each scenario reads its parameters from
// the segment metadata — the single source of truth shared with replay.
// ---------------------------------------------------------------------------

using MarkFn = std::function<void(ThreadContext&, uint32_t)>;

// The Figure 4 probe (bench/fig04_write_buffer_hit runs the same op stream);
// the marker between its phases makes the warm-up/measured split replayable.
Cycles RunFig04(System& system, const TraceSegment& seg, const MarkFn& mark) {
  return pmemsim_bench::RunRandomPartialWrites(system, KiB(MetaU64(seg, "wss_kb")),
                                               [&](ThreadContext& ctx) { mark(ctx, 0); });
}

LogPatternOptions OptionsFromMeta(const TraceSegment& seg) {
  LogPatternOptions opts;
  opts.ops = MetaU64(seg, "ops");
  opts.seed = MetaU64(seg, "seed");
  const std::string scenario = MetaStr(seg, "scenario");
  if (scenario == "log_store") {
    opts.value_bytes = MetaU64(seg, "value_bytes");
    opts.counter_slots = MetaU64(seg, "counter_slots");
  } else if (scenario == "circular_writes") {
    opts.write_bytes = MetaU64(seg, "write_bytes");
    opts.num_buffers = MetaU64(seg, "num_buffers");
  } else if (scenario == "cacheline_versions") {
    opts.buffer_bytes = KiB(MetaU64(seg, "buffer_kb"));
  }
  return opts;
}

// Multi-threaded workload run: one private workload instance per thread
// (disjoint regions from the bump allocator), interleaved one operation at a
// time by the clock-ordered Scheduler.
Cycles RunLogPattern(System& system, const TraceSegment& seg, const MarkFn& mark) {
  const std::string scenario = MetaStr(seg, "scenario");
  const uint64_t threads = MetaU64(seg, "threads");
  const LogPatternOptions opts = OptionsFromMeta(seg);

  std::vector<std::unique_ptr<LogPatternWorkload>> workloads;
  std::vector<ThreadContext*> ctxs;
  for (uint64_t t = 0; t < threads; ++t) {
    auto w = LogPatternWorkload::Create(scenario, opts);
    if (w == nullptr) {
      throw std::runtime_error("unknown workload scenario '" + scenario + "'");
    }
    w->Setup(system);
    workloads.push_back(std::move(w));
    ctxs.push_back(&system.CreateThread());
  }

  mark(*ctxs[0], 0);
  if (threads == 1) {
    workloads[0]->Run(*ctxs[0]);
  } else {
    std::vector<SimJob> jobs;
    for (uint64_t t = 0; t < threads; ++t) {
      LogPatternWorkload* w = workloads[t].get();
      ThreadContext* ctx = ctxs[t];
      uint64_t i = 0;
      jobs.push_back({ctx, [w, ctx, i]() mutable {
                        w->RunOne(*ctx, i);
                        return ++i < w->ops() ? StepResult::kProgress : StepResult::kDone;
                      }});
    }
    Scheduler::Run(jobs);
  }

  Cycles end = 0;
  for (const ThreadContext* ctx : ctxs) {
    end = std::max(end, ctx->clock());
  }
  return end;
}

Cycles RunScenarioPoint(System& system, const TraceSegment& seg, const MarkFn& mark) {
  const std::string scenario = MetaStr(seg, "scenario");
  if (scenario == "fig04") {
    return RunFig04(system, seg, mark);
  }
  return RunLogPattern(system, seg, mark);
}

// ---------------------------------------------------------------------------
// Stats emission — shared verbatim by record and replay.
// ---------------------------------------------------------------------------

std::vector<std::string> Columns(const std::string& scenario) {
  if (scenario == "fig04") {
    return {"scenario", "wss_kb", "hit_ratio", "records", "end_clock"};
  }
  if (scenario == "log_store") {
    return {"scenario",           "counter_slots",    "threads", "ops",
            "write_amplification", "buffer_hit_ratio", "records", "end_clock"};
  }
  if (scenario == "circular_writes") {
    return {"scenario",         "write_bytes", "num_buffers", "write_amplification",
            "buffer_hit_ratio", "records",     "end_clock"};
  }
  return {"scenario",         "buffer_kb", "write_amplification",
          "buffer_hit_ratio", "records",   "end_clock"};
}

void EmitRow(pmemsim_bench::SweepPoint& point, const TraceSegment& seg, const Snapshots& snaps) {
  const std::string scenario = MetaStr(seg, "scenario");
  pmemsim_bench::Row row;
  row.Set("scenario", scenario);
  if (scenario == "fig04") {
    if (snaps.at_marker.empty()) {
      throw std::runtime_error("fig04 segment carries no phase marker");
    }
    row.Set("wss_kb", MetaU64(seg, "wss_kb"))
        .Set("hit_ratio", (snaps.final_counters - snaps.at_marker[0]).WriteBufferHitRatio(), 3);
  } else {
    if (scenario == "log_store") {
      row.Set("counter_slots", MetaU64(seg, "counter_slots"))
          .Set("threads", MetaU64(seg, "threads"))
          .Set("ops", MetaU64(seg, "ops"));
    } else if (scenario == "circular_writes") {
      row.Set("write_bytes", MetaU64(seg, "write_bytes"))
          .Set("num_buffers", MetaU64(seg, "num_buffers"));
    } else if (scenario == "cacheline_versions") {
      row.Set("buffer_kb", MetaU64(seg, "buffer_kb"));
    } else {
      throw std::runtime_error("unknown scenario '" + scenario + "' in segment metadata");
    }
    row.Set("write_amplification", snaps.final_counters.WriteAmplification(), 3)
        .Set("buffer_hit_ratio", snaps.final_counters.WriteBufferHitRatio(), 3);
  }
  row.Set("records", snaps.records).Set("end_clock", static_cast<uint64_t>(snaps.end_clock));
  point.Emit(row);
}

// ---------------------------------------------------------------------------
// Point-spec construction (record side).
// ---------------------------------------------------------------------------

struct PointSpec {
  std::string label;
  Meta meta;
};

// Reads every scenario's flags whatever --scenario is, so --help lists them
// all; each scenario uses its own subset. --ops=0 runs the scenario's own op
// count.
std::vector<PointSpec> BuildPoints(const std::string& scenario, const pmemsim_bench::Flags& flags) {
  std::vector<PointSpec> points;
  const uint64_t seed = flags.GetU64("seed", 1);
  const uint64_t max_kb = flags.GetU64("max_kb", 8);
  const uint64_t ops_flag = flags.GetU64("ops", 0);
  const uint64_t threads = flags.GetU64("threads", 2);
  const uint64_t value_bytes = flags.GetU64("value_bytes", 128);
  const uint64_t num_buffers = flags.GetU64("buffers", 16);
  auto ops_or = [ops_flag](uint64_t own) { return ops_flag != 0 ? ops_flag : own; };
  auto u64s = [](uint64_t v) { return std::to_string(v); };
  if (scenario == "fig04") {
    for (uint64_t kb = 2; kb <= max_kb; ++kb) {
      points.push_back({"fig04/" + u64s(kb) + "kb",
                        {{"scenario", "fig04"}, {"wss_kb", u64s(kb)}, {"prefetchers", "off"}}});
    }
  } else if (scenario == "log_store") {
    const uint64_t ops = ops_or(400);
    for (const uint64_t slots : {uint64_t{1}, uint64_t{2}, uint64_t{8}}) {
      points.push_back({"log_store/slots" + u64s(slots),
                        {{"scenario", "log_store"},
                         {"counter_slots", u64s(slots)},
                         {"threads", u64s(threads)},
                         {"ops", u64s(ops)},
                         {"value_bytes", u64s(value_bytes)},
                         {"seed", u64s(seed)}}});
    }
  } else if (scenario == "circular_writes") {
    const uint64_t ops = ops_or(300);
    for (const uint64_t wb : {uint64_t{64}, uint64_t{256}, uint64_t{1024}}) {
      points.push_back({"circular_writes/" + u64s(wb) + "b",
                        {{"scenario", "circular_writes"},
                         {"write_bytes", u64s(wb)},
                         {"num_buffers", u64s(num_buffers)},
                         {"threads", "1"},
                         {"ops", u64s(ops)},
                         {"seed", u64s(seed)}}});
    }
  } else if (scenario == "cacheline_versions") {
    const uint64_t ops = ops_or(40);
    for (const uint64_t kb : {uint64_t{4}, uint64_t{16}}) {
      points.push_back({"cacheline_versions/" + u64s(kb) + "kb",
                        {{"scenario", "cacheline_versions"},
                         {"buffer_kb", u64s(kb)},
                         {"threads", "1"},
                         {"ops", u64s(ops)},
                         {"seed", u64s(seed)}}});
    }
  }
  return points;
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

constexpr char kUsage[] =
    "usage: pmemsim_trace <record|replay|info> [flags]\n"
    "  record  run a --scenario and write its trace to --out=<file.pmtrace>\n"
    "  replay  replay --in=<file.pmtrace>; stdout and stats equal the recording run's\n"
    "  info    describe --in=<file.pmtrace>\n"
    "pmemsim_trace <subcommand> --help lists the subcommand's flags.\n";

constexpr char kRecordNotes[] =
    "--scenario (fig04|log_store|circular_writes|cacheline_versions) and --out=<file.pmtrace>\n"
    "are required. fig04 takes --max_kb; log_store --ops, --threads and --value_bytes;\n"
    "circular_writes --ops and --buffers; cacheline_versions --ops, where --ops=0 runs the\n"
    "scenario's own op count. --seed seeds all but fig04.";

// The header text is subcommand-neutral so record and replay stdout (and the
// stats reports) are comparable byte-for-byte.
pmemsim_bench::SweepRunner& StartSweep(pmemsim_bench::Sweep& sweep, const std::string& scenario,
                                       const std::string& platform_name) {
  const std::string description = "scenario " + scenario + " on " + platform_name;
  return sweep.Start("pmemsim_trace", description.c_str(), Columns(scenario));
}

int RunRecord(pmemsim_bench::Sweep& sweep) {
  const pmemsim_bench::Flags& flags = sweep.flags();
  const std::string scenario = flags.Get("scenario", "");
  const std::string out_path = flags.Get("out", "");
  const std::string platform_name = flags.GetChoice("platform", "g1", PlatformNames());
  const uint32_t dimms = flags.GetU32("dimms", 1);
  const auto config = PlatformByName(platform_name);
  const std::vector<PointSpec> points = BuildPoints(scenario, flags);
  flags.RejectUnknown();  // answers --help ahead of the required-flag checks
  if (points.empty()) {
    pmemsim_bench::Flags::BadValue("scenario", scenario,
                                   "fig04, log_store, circular_writes, or cacheline_versions");
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "error: record requires --out=<file.pmtrace>\n");
    return 2;
  }
  pmemsim_bench::SweepRunner& runner = StartSweep(sweep, scenario, platform_name);

  TraceFile file;
  file.header.fingerprint = PlatformFingerprint(*config, dimms);
  file.header.platform_name = platform_name;
  file.header.generation = config->generation;
  file.header.eadr = config->eadr_enabled;
  file.header.dimm_count = dimms;
  file.header.scenario = scenario;
  file.segments.resize(points.size());

  for (size_t i = 0; i < points.size(); ++i) {
    // Each point owns segment slot `i`: the trace file layout is submission
    // order, byte-identical at any --jobs, exactly like the stats rows.
    runner.Add(points[i].label, [&, i](pmemsim_bench::SweepPoint& point) {
      TraceSegment spec;  // carries label+meta into the shared scenario code
      spec.label = points[i].label;
      spec.meta = points[i].meta;

      System system(*config, dimms);
      TraceRecorder recorder;
      system.SetTraceRecorder(&recorder);

      Snapshots snaps;
      const Cycles end = RunScenarioPoint(system, spec, [&](ThreadContext& ctx, uint32_t id) {
        ctx.TraceMarker(id);
        snaps.at_marker.push_back(system.counters());
      });
      snaps.final_counters = system.counters();
      snaps.end_clock = end;
      snaps.records = recorder.record_count();

      file.segments[i] = recorder.Take(points[i].label, points[i].meta);
      EmitRow(point, spec, snaps);
    });
  }
  const int failed = runner.Run(sweep.report());
  if (failed != 0) {
    std::fprintf(stderr, "error: %d point(s) failed; trace not written\n", failed);
    return sweep.Finish();
  }

  std::string error;
  if (!file.WriteTo(out_path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s: %zu segment(s), %" PRIu64 " records\n", out_path.c_str(),
               file.segments.size(), file.TotalRecords());
  return sweep.Finish();
}

// Loads the --in file and validates its header against the current build's platform
// presets. Exits 2 directly on any file-level problem.
TraceFile LoadOrDie(const std::string& in_path, PlatformConfig* config_out) {
  if (in_path.empty()) {
    std::fprintf(stderr, "error: --in=<file.pmtrace> is required\n");
    std::exit(2);
  }
  TraceFile file;
  std::string error;
  if (!TraceFile::Load(in_path, &file, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", in_path.c_str(), error.c_str());
    std::exit(2);
  }
  const auto config = PlatformByName(file.header.platform_name);
  if (config == std::nullopt) {
    std::fprintf(stderr, "error: %s: unknown platform '%s' in header\n", in_path.c_str(),
                 file.header.platform_name.c_str());
    std::exit(2);
  }
  const uint64_t fp = PlatformFingerprint(*config, file.header.dimm_count);
  if (fp != file.header.fingerprint) {
    std::fprintf(stderr,
                 "error: %s: platform fingerprint mismatch (file %016" PRIx64 ", this build "
                 "%016" PRIx64 ") — the timing model changed since recording\n",
                 in_path.c_str(), file.header.fingerprint, fp);
    std::exit(2);
  }
  if (config_out != nullptr) {
    *config_out = *config;
  }
  return file;
}

int RunReplay(pmemsim_bench::Sweep& sweep) {
  const std::string in_path = sweep.flags().Get("in", "");
  sweep.flags().RejectUnknown();  // answers --help ahead of loading the file
  PlatformConfig config;
  const TraceFile file = LoadOrDie(in_path, &config);
  pmemsim_bench::SweepRunner& runner =
      StartSweep(sweep, file.header.scenario, file.header.platform_name);
  for (const TraceSegment& seg : file.segments) {
    runner.Add(seg.label, [&](pmemsim_bench::SweepPoint& point) {
      System system(config, file.header.dimm_count);
      Snapshots snaps;
      ReplayOptions opts;
      opts.on_marker = [&](uint32_t, uint32_t) { snaps.at_marker.push_back(system.counters()); };
      if (MetaStr(seg, "prefetchers") == "off") {
        opts.on_thread_created = [](ThreadContext& ctx, uint32_t) {
          SetPrefetchers(ctx, false, false, false);
        };
      }
      const ReplayResult res = ReplaySegment(seg, system, opts);
      if (!res.ok) {
        throw std::runtime_error(res.error);
      }
      snaps.final_counters = system.counters();
      snaps.end_clock = res.end_clock;
      snaps.records = res.records_applied;
      EmitRow(point, seg, snaps);
    });
  }
  return sweep.Finish();
}

int RunInfo(const pmemsim_bench::Flags& flags) {
  const std::string in_path = flags.Get("in", "");
  flags.RejectUnknown();
  const TraceFile file = LoadOrDie(in_path, nullptr);

  const TraceFileHeader& h = file.header;
  std::printf("format_version: %u\n", h.version);
  std::printf("platform: %s (gen %s%s), %u dimm(s)\n", h.platform_name.c_str(),
              h.generation == Generation::kG1 ? "G1" : "G2", h.eadr ? ", eADR" : "",
              h.dimm_count);
  std::printf("fingerprint: %016" PRIx64 "\n", h.fingerprint);
  std::printf("scenario: %s\n", h.scenario.c_str());
  std::printf("segments: %zu, total records: %" PRIu64 "\n", file.segments.size(),
              file.TotalRecords());
  for (const TraceSegment& seg : file.segments) {
    uint64_t op_histo[static_cast<size_t>(TraceOp::kOpCount)] = {};
    for (const TraceRecord& rec : seg.records) {
      ++op_histo[static_cast<size_t>(rec.op)];
    }
    std::printf("  segment '%s': %zu thread(s), %zu records\n", seg.label.c_str(),
                seg.thread_nodes.size(), seg.records.size());
    for (const auto& [key, value] : seg.meta) {
      std::printf("    meta %s=%s\n", key.c_str(), value.c_str());
    }
    for (size_t op = 0; op < static_cast<size_t>(TraceOp::kOpCount); ++op) {
      if (op_histo[op] != 0) {
        std::printf("    op %-16s %" PRIu64 "\n", TraceOpName(static_cast<TraceOp>(op)),
                    op_histo[op]);
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc < 2 ? "" : argv[1];
  if (cmd != "record" && cmd != "replay" && cmd != "info") {
    if (!cmd.empty() && cmd != "--help") {
      std::fprintf(stderr, "error: unknown subcommand '%s' (record|replay|info)\n", cmd.c_str());
    }
    std::fputs(kUsage, stdout);
    return cmd == "--help" ? 0 : 2;
  }
  // The subcommand's flags follow it; its --help names "pmemsim_trace <cmd>".
  std::string program = "pmemsim_trace " + cmd;
  argv[1] = program.data();
  if (cmd == "info") {
    return RunInfo(pmemsim_bench::Flags(argc - 1, argv + 1));
  }
  pmemsim_bench::Sweep sweep(argc - 1, argv + 1, "pmemsim_trace",
                             cmd == "record" ? kRecordNotes : "");
  return cmd == "record" ? RunRecord(sweep) : RunReplay(sweep);
}
