// Crash-consistency workloads: the structures crashcheck can interrupt, and
// the one pipeline that turns a workload into validated crash points.
//
// A CrashWorkload drives one persistent structure while keeping enough
// bookkeeping to validate a durable image afterwards:
//  - Setup() builds the structure (its persists are recorded by the tracker
//    but are not crash points — call it before StartEvents);
//  - Run() performs the operations; injector actions run inside it at the
//    targeted crash events (Arm()'s action abandons it with CrashSignal);
//  - Validate() checks the structure's recovery contract against a fresh
//    System holding the materialized durable image. It reads only that
//    System and the expectation state, so it may run in the middle of Run().
//
// Bookkeeping discipline: an operation is recorded as *attempted* before the
// call and promoted to *acked* only after the call returns, so at any crash
// point the expectation splits operations exactly into must-be-visible and
// may-be-partial.

#ifndef SRC_CRASH_WORKLOADS_H_
#define SRC_CRASH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/config.h"
#include "src/core/system.h"
#include "src/cpu/thread_context.h"
#include "src/crash/crash_injector.h"
#include "src/crash/persist_tracker.h"
#include "src/crash/recovery_validator.h"

namespace pmemsim {

struct CrashWorkloadOptions {
  uint64_t ops = 2000;  // inserts (cceh/fastfair/flatlog) or log writes (redo/undo)
  uint64_t seed = 7;  // pmemsim_crashcheck's --seed default
  // Deliberately drop the slot-commit persist barrier (cceh only): the
  // validator must then report violations — crashcheck's self-test.
  bool break_persist = false;
};

class CrashWorkload {
 public:
  virtual ~CrashWorkload() = default;

  virtual void Setup(System& system, ThreadContext& ctx) = 0;
  virtual void Run(ThreadContext& ctx) = 0;
  virtual void Validate(System& fresh, ThreadContext& ctx, ValidationReport* report) = 0;

  // Acked operations at the time Run() stopped (for reporting).
  virtual uint64_t acked_ops() const = 0;

  // Factory: store is one of StoreNames(). Returns nullptr for unknown names.
  static std::unique_ptr<CrashWorkload> Create(std::string_view store,
                                               const CrashWorkloadOptions& opts);
  static std::vector<std::string> StoreNames();
};

// What one run of a crash workload generated.
struct CrashCalibration {
  uint64_t events = 0;     // crash points, numbered from StartEvents
  uint64_t acked_ops = 0;  // every operation, when the run is healthy
  PersistTracker::Stats window;
};

// Runs `store` once with no crash point, to count its events.
CrashCalibration CalibrateCrashWorkload(const PlatformConfig& platform, std::string_view store,
                                        const CrashWorkloadOptions& opts);

// One crash point: the event it landed on and the validated durable image.
struct CrashPointResult {
  uint64_t event = 0;
  CrashEventKind kind = CrashEventKind::kWpqAccept;
  Cycles crash_now = 0;
  uint64_t acked_ops = 0;
  PersistTracker::MaterializeResult mat;
  ValidationReport report;
};

// The tear seed of the crash point at `event_index` under sampling seed `seed`.
uint64_t TearSeedFor(uint64_t seed, uint64_t event_index);

// Runs `store` once. At each of `sorted_events` (strictly increasing) it
// materializes the durable image into a fresh System with
// TearSeedFor(tear_seed, event), validates it, hands the point to `on_point`
// and lets the run continue. Materialize() is const and every write is
// recorded before its event fires, so each point sees exactly what a run
// abandoned there by Arm() would. CHECK-fails unless every event fired.
CrashCalibration RunCrashPoints(const PlatformConfig& platform, std::string_view store,
                                const CrashWorkloadOptions& opts,
                                const std::vector<uint64_t>& sorted_events, uint64_t tear_seed,
                                PersistTracker::TearGranularity granularity,
                                const std::function<void(const CrashPointResult&)>& on_point);

}  // namespace pmemsim

#endif  // SRC_CRASH_WORKLOADS_H_
