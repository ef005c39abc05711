// Engine-scaling harness for the partitioned serving engine (not a paper
// figure): measures how many simulated serving ops per wall-clock second
// DomainTier sustains on an 8-shard open-loop YCSB-B point as the host
// thread count (--engine_threads) grows, and writes a trajectory baseline
// (BENCH_serve.json at the repo root) that CI's perf-smoke job gates with
// scripts/check_perf.py.
//
// One row per thread count, the same cells in the CSV and the JSON:
// workload,threads,reps,ops,wall_ms,sim_mops_per_sec,speedup_vs_1t
//
// The harness is also a determinism gate in its own right: every rep at every
// thread count must produce a byte-identical tier report (DomainTier::ToJson),
// and the run fails loudly if any pair diverges — wall time is the ONLY thing
// host threading may change.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/platform.h"
#include "src/serve/domain_tier.h"
#include "src/workload/ycsb.h"

namespace {

using namespace pmemsim;

struct RunResult {
  double wall_sec = 0.0;
  uint64_t completed = 0;
  std::string report_json;
};

RunResult RunOnce(const PlatformConfig& platform, const ServeConfig& cfg) {
  RunResult r;
  const double t0 = pmemsim_bench::Now();
  DomainTier tier(platform, /*dimms_per_domain=*/1, cfg);
  tier.Run();
  r.wall_sec = pmemsim_bench::Now() - t0;
  r.completed = tier.GlobalStats().completed;
  r.report_json = tier.ToJson();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Flags flags(
      argc, argv,
      "--quick lowers --ops_scale's default to the CI perf-smoke size (see --quick --help);\n"
      "--ops_scale=N scales the per-shard op budget to N%. --threads lists the\n"
      "--engine_threads values to measure. Repetitions run interleaved round-robin so\n"
      "host-load drift biases every thread count equally; reported throughput is the\n"
      "median. --stats_json= (empty) writes no report.\n"
      "The simulated point: 8-shard open-loop YCSB-B on fastfair, G1 platform.\n"
      "Every rep at every thread count must byte-match the same tier report;\n"
      "wall time is the only thing host threading may change.");
  const bool quick = flags.Has("quick");
  const uint64_t ops_scale = flags.GetU64("ops_scale", quick ? 100 / 8 : 100);
  const uint64_t reps = flags.GetPositiveU64("reps", 3);
  std::vector<uint32_t> threads;
  for (const uint64_t t : flags.GetPositiveU64List("threads", "1,4")) {
    if (t > UINT32_MAX) {
      pmemsim_bench::Flags::BadValue("threads", std::to_string(t), "thread count below 2^32");
    }
    threads.push_back(static_cast<uint32_t>(t));
  }
  pmemsim_bench::BenchReport report(flags, "perf_serve", "BENCH_serve.json");
  flags.RejectUnknown();

  const PlatformConfig platform = *PlatformByName("g1");
  ServeConfig cfg;
  cfg.store = StoreKind::kFastFair;
  cfg.loop = LoopMode::kOpen;
  cfg.mix_name = "b";
  cfg.mix = *MixByName("b");
  cfg.shards = 8;
  cfg.workers_per_shard = 2;
  cfg.ops = std::max<uint64_t>(1, 50000 * ops_scale / 100);  // per shard
  cfg.keys = 20000;                                          // per shard
  cfg.seed = 42;

  pmemsim_bench::PrintHeader("perf_serve",
                             "partitioned-engine scaling: simulated serving ops per wall second");
  report.DeclareColumns(
      {"workload", "threads", "reps", "ops", "wall_ms", "sim_mops_per_sec", "speedup_vs_1t"});
  int rc = 0;

  // Interleaved repetitions (rep 0 of every thread count, then rep 1, ...) so
  // ambient host load drifts across every thread count's sample set equally.
  std::vector<std::vector<RunResult>> samples(threads.size());
  for (uint64_t rep = 0; rep < reps; ++rep) {
    for (size_t ti = 0; ti < threads.size(); ++ti) {
      ServeConfig point = cfg;
      point.engine_threads = threads[ti];
      samples[ti].push_back(RunOnce(platform, point));
    }
  }

  // Determinism gate: one canonical report, every sample must byte-match it.
  const std::string& canonical = samples[0][0].report_json;
  for (size_t ti = 0; ti < threads.size(); ++ti) {
    for (const RunResult& s : samples[ti]) {
      if (s.report_json != canonical) {
        std::fprintf(stderr,
                     "error: tier report diverges at --engine_threads=%u — the "
                     "partitioned engine is nondeterministic\n",
                     threads[ti]);
        rc = 1;
      }
    }
  }

  double base_mops = 0.0;
  for (size_t ti = 0; ti < threads.size(); ++ti) {
    const RunResult& first = samples[ti].front();
    std::vector<double> walls;
    for (const RunResult& s : samples[ti]) {
      walls.push_back(s.wall_sec);
    }
    const double wall_sec = pmemsim_bench::Median(walls);
    if (wall_sec <= 0.0 || first.completed == 0) {
      std::fprintf(stderr, "error: measured nothing at --engine_threads=%u\n", threads[ti]);
      rc = 1;
      continue;
    }
    const double mops = static_cast<double>(first.completed) / wall_sec / 1e6;
    if (ti == 0) {
      base_mops = mops;
    }
    const double speedup = base_mops > 0.0 ? mops / base_mops : 0.0;
    char name[32];
    std::snprintf(name, sizeof(name), "serve_et%u", threads[ti]);
    report.Emit(pmemsim_bench::Row()
                    .Set("workload", name)
                    .Set("threads", threads[ti])
                    .Set("reps", reps)
                    .Set("ops", first.completed)
                    .Set("wall_ms", wall_sec * 1e3, 1)
                    .Set("sim_mops_per_sec", mops, 3)
                    .Set("speedup_vs_1t", speedup, 2));
  }
  const int finish_rc = report.Finish();
  return rc != 0 ? rc : finish_rc;
}
