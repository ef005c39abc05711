#include "bench/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/common/host_pool.h"

namespace pmemsim_bench {

void SweepPoint::Emit(BenchReport::Row row) {
  PMEMSIM_CHECK_MSG(columns_ != nullptr && row.HasColumns(*columns_),
                    "row keys differ from the declared columns");
  rows_.push_back(std::move(row));
}

SweepRunner::SweepRunner(const Flags& flags) {
  const uint32_t jobs = flags.GetU32("jobs", 1);
  jobs_ = jobs == 0 ? 1 : jobs;
}

void SweepRunner::Add(std::string label, std::function<void(SweepPoint&)> fn) {
  points_.push_back(Point{std::move(label), std::move(fn)});
}

namespace {

// Execution state of one queued point, filled in by a worker.
struct PointState {
  SweepPoint output;
  std::string error;  // non-empty <=> the point failed
  bool failed = false;
  bool done = false;
};

// Runs one point with failure isolation: CHECK failures (rethrown as
// pmemsim::CheckFailure under the capture scope) and exceptions become an
// error recorded on the state instead of killing the process.
void RunPoint(const std::function<void(SweepPoint&)>& fn, PointState& state) {
  pmemsim::ScopedCheckCapture capture;
  try {
    fn(state.output);
  } catch (const std::exception& e) {
    state.failed = true;
    state.error = e.what();
  } catch (...) {
    state.failed = true;
    state.error = "unknown exception";
  }
}

}  // namespace

int SweepRunner::Run(BenchReport& report) {
  PMEMSIM_CHECK_MSG(!ran_, "SweepRunner::Run called twice");
  ran_ = true;

  std::vector<PointState> states(points_.size());
  for (PointState& state : states) {
    state.output.columns_ = &report.columns_;
  }

  // Workers claim points from an atomic cursor. Each point builds its own
  // System from fixed seeds, so its output is independent of which worker
  // runs it or when. The worker that finishes a point emits every point of
  // the finished prefix, in submission order, so rows stream as soon as
  // every earlier point is out, whatever the completion order.
  std::atomic<size_t> next{0};
  std::mutex mu;
  size_t emitted = 0;  // points [0, emitted) are out; guarded by mu
  int failures = 0;    // guarded by mu
  pmemsim::HostPool pool(static_cast<uint32_t>(std::min<size_t>(jobs_, points_.size())));
  pool.Run([&](uint32_t) {
    for (size_t i = next.fetch_add(1); i < points_.size(); i = next.fetch_add(1)) {
      RunPoint(points_[i].fn, states[i]);
      std::lock_guard<std::mutex> lock(mu);
      states[i].done = true;
      for (; emitted < states.size() && states[emitted].done; ++emitted) {
        PointState& state = states[emitted];
        if (state.failed) {
          ++failures;
          std::fprintf(stderr, "sweep point failed: %s: %s\n", points_[emitted].label.c_str(),
                       state.error.c_str());
          report.EmitError(points_[emitted].label, state.error);
        } else {
          for (BenchReport::Row& row : state.output.rows_) {
            report.Emit(std::move(row));
          }
        }
        std::fflush(stdout);
      }
    }
  });
  failures_ = failures;
  return failures;
}

int SweepRunner::Finish(BenchReport& report) {
  if (!ran_) {
    Run(report);
  }
  const int report_rc = report.Finish();
  if (failures_ > 0) {
    std::fprintf(stderr, "sweep: %d of %zu points failed\n", failures_, points_.size());
    return 1;
  }
  return report_rc;
}

Sweep::Sweep(int argc, char** argv, std::string bench_name, std::string notes)
    : flags_(argc, argv, std::move(notes)),
      report_(flags_, std::move(bench_name)),
      runner_(flags_) {}

SweepRunner& Sweep::Start(const char* figure, const char* description,
                          std::vector<std::string> columns) {
  flags_.RejectUnknown();
  PrintHeader(figure, description);
  report_.DeclareColumns(std::move(columns));
  return runner_;
}

int Sweep::Finish() { return runner_.Finish(report_); }

}  // namespace pmemsim_bench
