#include "bench/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.h"

namespace pmemsim_bench {

void SweepPoint::Emit(BenchReport::Row row) {
  PMEMSIM_CHECK_MSG(columns_ != nullptr && row.HasColumns(*columns_),
                    "row keys differ from the declared columns");
  rows_.push_back(std::move(row));
}

SweepRunner::SweepRunner(const Flags& flags) {
  const uint64_t jobs = flags.GetU64("jobs", 1);
  jobs_ = jobs == 0 ? 1 : static_cast<uint32_t>(jobs);
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

  // Deterministic emission: submission order, whatever the completion order.
  int failures = 0;
  auto emit = [&](size_t i) {
    PointState& state = states[i];
    if (state.failed) {
      ++failures;
      std::fprintf(stderr, "sweep point failed: %s: %s\n", points_[i].label.c_str(),
                   state.error.c_str());
      report.EmitError(points_[i].label, state.error);
    } else {
      for (BenchReport::Row& row : state.output.rows_) {
        report.Emit(std::move(row));
      }
    }
    std::fflush(stdout);
  };

  if (jobs_ <= 1 || points_.size() <= 1) {
    // Serial path: run on the calling thread, emitting as each point ends.
    // Identical to the historical per-bench loops, plus failure isolation.
    for (size_t i = 0; i < points_.size(); ++i) {
      RunPoint(points_[i].fn, states[i]);
      states[i].done = true;
      emit(i);
    }
  } else {
    // Sharded path: workers claim points via an atomic cursor; the main
    // thread streams each point's output as soon as every earlier point has
    // been emitted. Each point builds its own System from fixed seeds, so
    // its output is independent of which worker runs it or when.
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    auto worker = [&]() {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= points_.size()) {
          return;
        }
        PointState& state = states[i];
        RunPoint(points_[i].fn, state);
        {
          std::lock_guard<std::mutex> lock(mu);
          state.done = true;
        }
        cv.notify_one();
      }
    };
    const uint32_t n = static_cast<uint32_t>(std::min<size_t>(jobs_, points_.size()));
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (uint32_t t = 0; t < n; ++t) {
      threads.emplace_back(worker);
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      for (size_t i = 0; i < states.size(); ++i) {
        cv.wait(lock, [&] { return states[i].done; });
        lock.unlock();
        emit(i);  // emission off-lock: workers keep claiming points
        lock.lock();
      }
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
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
