// Work-sharded sweep runner for the benches and tools.
//
// Every fig*/ablation_*/sec33_* bench, and the probe, crashcheck, serve and
// trace record|replay tools, is a sweep over independent points (one
// simulated System per point, fixed seeds), so the points can run on the
// --jobs=N workers of one HostPool (src/common/host_pool.h): the calling
// thread plus N-1 pool threads, each claiming the next point. The runner
// keeps the observable outputs identical to a serial run:
//
//  * each point's rows are buffered on the worker and emitted in submission
//    order, regardless of completion order, as soon as every earlier point
//    is out — the CSV stream and the --stats_json file are byte-identical at
//    any --jobs;
//  * a point that throws (or fails a PMEMSIM_CHECK — workers run inside a
//    ScopedCheckCapture) is isolated: the sweep continues, the point emits an
//    error row {"point": label, "error": message}, an "error," CSV line, and
//    the run exits nonzero with a failure summary on stderr.
//
// A binary declares its CSV columns once; SweepPoint::Emit buffers each row,
// and the runner hands it to BenchReport::Emit, which prints the CSV line and
// keeps the --stats_json row, so the two cannot drift. A row whose cell names
// differ from the declared columns fails a CHECK on the worker, which the
// runner turns into that point's error row.
//
// Usage: a sweep binary's main() goes through the Sweep front end.
//
//   int main(int argc, char** argv) {
//     pmemsim_bench::Sweep sweep(argc, argv, "fig04_write_buffer_hit");
//     // Each read is also the flag's --help entry, with this default.
//     const auto gens = sweep.flags().GetGenerations("both");
//     const uint64_t max_kb = sweep.flags().GetU64("max_kb", 32);
//     pmemsim_bench::SweepRunner& runner = sweep.Start(
//         "Figure 4", "write-buffer hit ratio vs WSS", {"gen", "wss_kb", "hit_ratio"});
//     for (...)
//       runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
//         const double ratio = Measure(...);    // builds its own System
//         point.Emit(pmemsim_bench::Row().Set("gen", g.name).Set("wss_kb", kb)
//                        .Set("hit_ratio", ratio, /*precision=*/3));
//       });
//     return sweep.Finish();
//   }
//
// A binary that also has rows made outside any point (crashcheck's summary)
// runs the points with runner.Run(sweep.report()), then declares the second
// column set and emits those rows on sweep.report(), then calls Finish().

#ifndef BENCH_SWEEP_RUNNER_H_
#define BENCH_SWEEP_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace pmemsim_bench {

// Per-point output collector. Emit is called from the worker running the
// point; the runner emits the buffered rows in submission order.
class SweepPoint {
 public:
  // Buffers `row` for the CSV stream and the --stats_json report. The row's
  // cell names must equal the declared columns.
  void Emit(BenchReport::Row row);

 private:
  friend class SweepRunner;
  std::vector<BenchReport::Row> rows_;
  const std::vector<std::string>* columns_ = nullptr;
};

class SweepRunner {
 public:
  // Reads --jobs=N from `flags` (default 1; 0 means 1; above UINT32_MAX exits 2).
  explicit SweepRunner(const Flags& flags);

  // Queues one sweep point. `label` names the point in error rows and the
  // failure summary; `fn` runs on a worker thread and must only touch state
  // it creates (each point constructs its own System).
  void Add(std::string label, std::function<void(SweepPoint&)> fn);

  // Runs all queued points on min(jobs, points) workers and emits their rows
  // on `report`, against its declared columns, in submission order. Returns
  // the number of failed points.
  int Run(BenchReport& report);

  // Run() unless it already ran, then the failure summary and
  // report.Finish(). Returns the process exit code: nonzero when any point
  // failed or the report could not be written.
  int Finish(BenchReport& report);

  uint32_t jobs() const { return jobs_; }

 private:
  struct Point {
    std::string label;
    std::function<void(SweepPoint&)> fn;
  };

  uint32_t jobs_ = 1;
  std::vector<Point> points_;
  bool ran_ = false;
  int failures_ = 0;
};

// The front end every sweep binary's main() shares. The constructor builds
// the BenchReport and the SweepRunner;
// the binary then reads its own flags through flags(); Start() rejects
// unknown flags and answers --help (Flags::RejectUnknown), prints the
// "# <figure> — <description>" header and declares the columns. A binary
// that must validate its flags before Start() (a required file) calls
// flags().RejectUnknown() itself after its last read.
class Sweep {
 public:
  // `notes` is prose for --help after the generated flag list.
  Sweep(int argc, char** argv, std::string bench_name, std::string notes = "");

  const Flags& flags() const { return flags_; }

  SweepRunner& Start(const char* figure, const char* description,
                     std::vector<std::string> columns);

  // The report, for JSON sections and for rows made outside a point.
  BenchReport& report() { return report_; }

  // Runs the points unless the runner already ran them and writes the
  // report; returns the process exit code.
  int Finish();

 private:
  Flags flags_;
  BenchReport report_;
  SweepRunner runner_;
};

}  // namespace pmemsim_bench

#endif  // BENCH_SWEEP_RUNNER_H_
