// Speculative helper-thread prefetching (paper §4.1).
//
// A helper context — bound to the worker's sibling hyperthread on the real
// machine — replays only the index-walk *loads* of upcoming operations,
// unconstrained by the worker's persistence barriers. With 100% accurate
// "prediction" (it reads the same future key stream) the worker's random
// media reads become L3/read-buffer hits. The prefetch depth caps how far the
// helper runs ahead so the buffers are not thrashed (the paper found depth 8
// best).
//
// SpeculativeHelperPair packages the worker/helper coupling as Scheduler jobs.

#ifndef SRC_PREFETCH_HELPER_THREAD_H_
#define SRC_PREFETCH_HELPER_THREAD_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "src/cpu/scheduler.h"
#include "src/cpu/thread_context.h"

namespace pmemsim {

struct HelperConfig {
  uint32_t prefetch_depth = 8;
  // SMT co-run penalty applied to both hyperthreads' core-local work while
  // the pair is active (1.0 = none).
  double smt_scale = 1.6;
};

class SpeculativeHelperPair {
 public:
  using WorkFn = std::function<void(ThreadContext&, size_t index)>;

  // Executes `count` operations: `work` runs on the worker for index i while
  // `prefetch` runs on the helper for indices up to i + depth.
  SpeculativeHelperPair(ThreadContext* worker, ThreadContext* helper, size_t count, WorkFn work,
                        WorkFn prefetch, HelperConfig config = {});

  // Appends the coupled worker+helper jobs. Lifetime: this object must
  // outlive Scheduler::Run.
  void AppendJobs(std::vector<SimJob>& jobs);

 private:
  StepResult WorkerStep();
  StepResult HelperStep();

  ThreadContext* worker_;
  ThreadContext* helper_;
  size_t count_;
  WorkFn work_;
  WorkFn prefetch_;
  HelperConfig config_;

  size_t worker_index_ = 0;
  size_t helper_index_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_PREFETCH_HELPER_THREAD_H_
