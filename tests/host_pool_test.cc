// Tests for HostPool, the host-thread pool behind --jobs and
// --engine_threads: every worker runs once per Run(), worker 0 is the caller,
// a worker's exception or failed CHECK is rethrown on the caller without
// aborting the process, and the pool survives a failed Run().

#include "src/common/host_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"

namespace pmemsim {
namespace {

// Runs one Run() that counts every worker; returns the count.
uint32_t CountWorkers(HostPool& pool) {
  std::atomic<uint32_t> ran{0};
  pool.Run([&](uint32_t) { ran.fetch_add(1); });
  return ran.load();
}

TEST(HostPoolTest, EveryWorkerRunsOnceAndWorkerZeroIsTheCaller) {
  HostPool pool(4);
  std::vector<std::thread::id> ids(4);
  std::vector<int> runs(4, 0);
  pool.Run([&](uint32_t w) {
    ids[w] = std::this_thread::get_id();
    ++runs[w];
  });
  EXPECT_EQ(runs, std::vector<int>({1, 1, 1, 1}));
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()).size(), 4u);
}

TEST(HostPoolTest, ExceptionOnAWorkerIsRethrownOnTheCaller) {
  HostPool pool(4);
  std::atomic<uint32_t> finished{0};
  std::string what;
  try {
    pool.Run([&](uint32_t w) {
      if (w == 2) {
        throw std::runtime_error("worker 2 failed");
      }
      finished.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "worker 2 failed");
  EXPECT_EQ(finished.load(), 3u);  // Run waited for the other workers
  EXPECT_EQ(CountWorkers(pool), 4u);
}

TEST(HostPoolTest, CheckFailureOnAWorkerIsRethrownNotAborted) {
  HostPool pool(4);
  testing::internal::CaptureStderr();
  std::string what;
  try {
    pool.Run([](uint32_t w) { PMEMSIM_CHECK_MSG(w != 3, "worker 3 tripped"); });
  } catch (const CheckFailure& e) {
    what = e.what();
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(what.find("worker 3 tripped"), std::string::npos) << what;
  EXPECT_NE(err.find("worker 3 tripped"), std::string::npos) << err;
  EXPECT_EQ(CountWorkers(pool), 4u);
}

TEST(HostPoolTest, PoolOfOneRunsInlineOnTheCaller) {
  HostPool pool(1);
  std::thread::id id;
  uint32_t worker = 99;
  pool.Run([&](uint32_t w) {
    id = std::this_thread::get_id();
    worker = w;
  });
  EXPECT_EQ(id, std::this_thread::get_id());
  EXPECT_EQ(worker, 0u);
}

}  // namespace
}  // namespace pmemsim
