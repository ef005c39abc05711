// Work-sharded sweep runner for the figure benches.
//
// Every fig*/ablation_*/sec33_* bench is a sweep over independent points
// (one simulated System per point, fixed seeds), so the points can run on
// --jobs=N OS worker threads. The runner keeps the observable outputs
// identical to a serial run:
//
//  * each point's stdout text and report rows are buffered on the worker and
//    emitted in submission order, regardless of completion order — the CSV
//    stream and the --stats_json file are byte-identical at any --jobs;
//  * a point that throws (or fails a PMEMSIM_CHECK — workers run inside a
//    ScopedCheckCapture) is isolated: the sweep continues, the point emits an
//    error row {"point": label, "error": message}, an "error," CSV line, and
//    the run exits nonzero with a failure summary on stderr.
//
// Tracing (--trace_out) uses the process-wide TraceEmitter whose event order
// would depend on worker interleaving, so tracing runs are pinned to one job.
//
// A bench declares its CSV columns once; SweepPoint::Emit renders each row as
// the CSV line and the --stats_json row together, so the two cannot drift. A
// row whose cell names differ from the declared columns fails a CHECK, which
// the runner turns into that point's error row.
//
// Usage: a sweep bench's main() goes through the Sweep front end.
//
//   int main(int argc, char** argv) {
//     pmemsim_bench::Sweep sweep(argc, argv, "fig04_write_buffer_hit",
//                                " [--gen=g1|g2|both] [--max_kb=32]");
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

#ifndef BENCH_SWEEP_RUNNER_H_
#define BENCH_SWEEP_RUNNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace pmemsim_bench {

// Per-point output collector. Methods are called from the worker running the
// point; the runner emits the buffered output in submission order.
class SweepPoint {
 public:
  // Buffers printf-formatted text destined for stdout (the CSV rows).
  void Printf(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  // Buffers a row destined for the bench's --stats_json report.
  BenchReport::Row& AddRow();

  // Buffers `row` as both the CSV line (Row::Csv) and the report row. The
  // row's cell names must equal the runner's declared columns.
  void Emit(const BenchReport::Row& row);

 private:
  friend class SweepRunner;
  std::string text_;
  std::vector<BenchReport::Row> rows_;
  const std::vector<std::string>* columns_ = nullptr;
};

class SweepRunner {
 public:
  // Reads --jobs=N from `flags` (default 1, clamped to >= 1). Tracing runs
  // (--trace_out, already enabled on the global TraceEmitter by BenchReport)
  // are clamped to one job with a note on stderr.
  explicit SweepRunner(const Flags& flags);

  // Queues one sweep point. `label` names the point in error rows and the
  // failure summary; `fn` runs on a worker thread and must only touch state
  // it creates (each point constructs its own System).
  void Add(std::string label, std::function<void(SweepPoint&)> fn);

  // Declares the CSV columns every SweepPoint::Emit row must carry, and
  // prints them as the column line.
  void DeclareColumns(std::vector<std::string> columns);

  // Runs all queued points across the worker threads; emits text and rows in
  // submission order. Returns the number of failed points.
  int Run(BenchReport& report);

  // Run() + failure summary + report.Finish(). Returns the process exit code:
  // nonzero when any point failed or the report could not be written.
  int Finish(BenchReport& report);

  uint32_t jobs() const { return jobs_; }

 private:
  struct Point {
    std::string label;
    std::function<void(SweepPoint&)> fn;
  };

  uint32_t jobs_ = 1;
  std::vector<Point> points_;
  std::vector<std::string> columns_;
  bool ran_ = false;
};

// The front end every sweep bench's main() shares. The constructor answers
// --help (usage line plus kTelemetryFlagsHelp, exit 0); the bench then reads
// its own flags through flags(); Start() builds the BenchReport (first, so
// --trace_out pins --jobs) and the SweepRunner, rejects unknown flags and
// prints the "# <figure> — <description>" header and the column line.
class Sweep {
 public:
  // `usage_args` follows "usage: <bench_name>" in the --help text.
  Sweep(int argc, char** argv, std::string bench_name, const char* usage_args);

  const Flags& flags() const { return flags_; }

  // `columns` empty: the bench prints free-form lines and declares none.
  SweepRunner& Start(const char* figure, const char* description,
                     std::vector<std::string> columns);

  // Runs the points and writes the report; returns the process exit code.
  int Finish();

 private:
  Flags flags_;
  std::string bench_name_;
  std::optional<BenchReport> report_;
  std::optional<SweepRunner> runner_;
};

}  // namespace pmemsim_bench

#endif  // BENCH_SWEEP_RUNNER_H_
