#include "src/common/host_pool.h"

#include <utility>

#include "src/common/check.h"

namespace pmemsim {

HostPool::HostPool(uint32_t n) : n_(n) {
  threads_.reserve(n_ > 0 ? n_ - 1 : 0);
  for (uint32_t w = 1; w < n_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

HostPool::~HostPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    ++generation_;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void HostPool::Run(const std::function<void(uint32_t)>& body) {
  if (n_ <= 1) {
    body(0);  // sequential path: no threads, no barrier
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    remaining_ = n_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  RunBody(0);
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return remaining_ == 0; });
  body_ = nullptr;
  if (error_ != nullptr) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void HostPool::WorkerLoop(uint32_t w) {
  // A CHECK failure in a body must not abort the process from a pool thread:
  // capture it as an exception and let Run() rethrow it on the caller, where
  // the caller's own capture scope (the sweep runner's) can isolate it.
  ScopedCheckCapture capture;
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      if (stop_) {
        return;
      }
    }
    RunBody(w);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) {
        cv_done_.notify_one();
      }
    }
  }
}

void HostPool::RunBody(uint32_t w) {
  try {
    (*body_)(w);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_ == nullptr) {
      error_ = std::current_exception();
    }
  }
}

}  // namespace pmemsim
