// HostPool: the one host-thread pool. The sweep runner spreads its --jobs
// independent points over one, and the partitioned serving engine
// (DomainTier) its --engine_threads shard domains. Which host thread runs a
// piece of simulation never moves a simulated number, only wall time.
//
// A pool of N has N-1 persistent threads plus the caller, which is worker 0;
// a pool of one (or zero) spawns no thread. Pool threads run inside a
// ScopedCheckCapture, so a failed PMEMSIM_CHECK in a body reaches the caller
// as a CheckFailure instead of aborting the process from a thread nothing can
// catch. All cross-thread state is published under one mutex: every write a
// body makes happens-before the caller's reads after Run().

#ifndef SRC_COMMON_HOST_POOL_H_
#define SRC_COMMON_HOST_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pmemsim {

class HostPool {
 public:
  explicit HostPool(uint32_t n);
  ~HostPool();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  // Runs body(w) on worker w for every w in [0, n), the caller being worker
  // 0; returns when every worker has finished. The first exception any
  // worker threw is rethrown here, after all of them finished, and the pool
  // stays usable for the next Run().
  void Run(const std::function<void(uint32_t)>& body);

 private:
  void WorkerLoop(uint32_t w);
  void RunBody(uint32_t w);

  const uint32_t n_;
  std::mutex mu_;  // guards everything below but threads_
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(uint32_t)>* body_ = nullptr;
  uint32_t remaining_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_ = nullptr;
  std::vector<std::thread> threads_;  // last: the threads use every member above
};

}  // namespace pmemsim

#endif  // SRC_COMMON_HOST_POOL_H_
