#include "src/cpu/scheduler.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/trace/sampler.h"

namespace pmemsim {
namespace internal {

// Index min-heap over job clocks. Ties break toward the smaller job index,
// which reproduces the original linear scan's pick (first minimum wins), so
// multi-thread interleavings are identical to the pre-heap scheduler.
//
// Keys are SoA-packed: the heap compares against a dense clock array instead
// of chasing jobs_[i].ctx, so a sift touches one cache line of keys rather
// than one ThreadContext per level. The cache stays coherent because only the
// heap-top job's clock can change while it runs (every other job is parked),
// and UpdateTop() re-reads exactly that one entry.
class JobHeap {
 public:
  explicit JobHeap(const std::vector<SimJob>& jobs) {
    heap_.resize(jobs.size());
    clocks_.resize(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      heap_[i] = i;
      clocks_[i] = jobs[i].ctx->clock();
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) {
      SiftDown(i);
    }
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  size_t top() const { return heap_[0]; }
  Cycles top_clock() const { return clocks_[heap_[0]]; }

  // Smallest key among all jobs except the top; the top stays the scheduling
  // pick while its key is below this. In a binary heap the runner-up is one
  // of the root's children; a lone job has none and never yields.
  std::pair<Cycles, size_t> RunnerUp() const {
    std::pair<Cycles, size_t> best = {Scheduler::kNoLimit, SIZE_MAX};
    for (size_t child = 1; child <= 2 && child < heap_.size(); ++child) {
      best = std::min(best, Key(heap_[child]));
    }
    return best;
  }

  void PopTop() {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(0);
    }
  }

  // Publishes the top job's new clock into the key array and restores the
  // heap invariant. The top is the only entry whose clock can be stale.
  void UpdateTop(Cycles clock) {
    clocks_[heap_[0]] = clock;
    SiftDown(0);
  }

 private:
  std::pair<Cycles, size_t> Key(size_t job) const { return {clocks_[job], job}; }

  void SiftDown(size_t pos) {
    const size_t n = heap_.size();
    while (true) {
      const size_t l = 2 * pos + 1;
      const size_t r = 2 * pos + 2;
      size_t smallest = pos;
      if (l < n && Key(heap_[l]) < Key(heap_[smallest])) {
        smallest = l;
      }
      if (r < n && Key(heap_[r]) < Key(heap_[smallest])) {
        smallest = r;
      }
      if (smallest == pos) {
        return;
      }
      std::swap(heap_[pos], heap_[smallest]);
      pos = smallest;
    }
  }

  std::vector<size_t> heap_;
  std::vector<Cycles> clocks_;  // SoA heap keys: clocks_[job] mirrors
                                // jobs[job].ctx->clock() for parked jobs
};

}  // namespace internal

Scheduler::Scheduler(std::vector<SimJob>* jobs)
    : jobs_(jobs), heap_(std::make_unique<internal::JobHeap>(*jobs)) {}

Scheduler::~Scheduler() = default;

bool Scheduler::AllDone() const { return heap_->empty(); }

Cycles Scheduler::NextEventTime() const {
  return heap_->empty() ? kNoLimit : heap_->top_clock();
}

void Scheduler::RunUntil(Cycles limit, Sampler* sampler) {
  internal::JobHeap& heap = *heap_;

  while (!heap.empty()) {
    // Heap keys are exact at the head of every batch (UpdateTop publishes the
    // running job's clock before control returns here), so the top key is the
    // true global minimum: once it reaches the window limit, every unfinished
    // job is parked at >= limit and the window is over.
    if (heap.top_clock() >= limit) {
      return;
    }
    const size_t i = heap.top();
    SimJob& job = (*jobs_)[i];
    ThreadContext* const ctx = job.ctx;

    // Batch-advance invariant: while the top job runs, every other job is
    // parked, so no other clock can move and the runner-up key is constant
    // for the whole batch. Compute it once and keep stepping the top job
    // until its key passes it (ties yield to the smaller job index, exactly
    // as the per-step heap check did) — the heap is touched once per batch
    // instead of once per step. The window limit joins the batch-exit check:
    // a job at or past `limit` parks exactly where the unbounded run would
    // have yielded it. A lone job's runner-up is {kNoLimit, SIZE_MAX}, so it
    // runs until the window edge or kDone.
    const std::pair<Cycles, size_t> runner_up = heap.RunnerUp();
    while (true) {
      const Cycles before = ctx->clock();
      // `before` is the global minimum clock (this job is the heap top), the
      // only monotone "now": sample boundaries close before any event that
      // can still be generated at a later cycle.
      if (sampler != nullptr) {
        sampler->AdvanceTo(before);
      }
      const StepResult r = job.step();
      if (r == StepResult::kDone) {
        heap.PopTop();
        stuck_guard_ = 0;
        break;
      }
      // Livelock guard: steps must advance time.
      if (ctx->clock() == before) {
        PMEMSIM_CHECK_MSG(++stuck_guard_ < 1000000,
                          "scheduler livelock: step did not advance clock");
      } else {
        stuck_guard_ = 0;
      }
      if (ctx->clock() < limit && std::make_pair(ctx->clock(), i) < runner_up) {
        continue;  // still the unique minimum, still inside the window
      }
      heap.UpdateTop(ctx->clock());
      break;
    }
  }
}

Cycles Scheduler::Run(std::vector<SimJob>& jobs, Sampler* sampler) {
  if (jobs.empty()) {
    return 0;
  }
  Scheduler scheduler(&jobs);
  scheduler.RunUntil(kNoLimit, sampler);

  Cycles max_clock = 0;
  for (const SimJob& job : jobs) {
    max_clock = std::max(max_clock, job.ctx->clock());
  }
  return max_clock;
}

}  // namespace pmemsim
