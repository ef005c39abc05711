// CrashInjector: deterministic crash-point selection for the crash-consistency
// subsystem (tracker -> injector -> validator pipeline).
//
// The PersistTracker forwards every persistence event — WPQ acceptance, WPQ
// drain, fence completion — to the injector once event counting starts. The
// injector numbers them and runs an action at each targeted index, inside the
// simulated operation, while the machine is exactly at that boundary.
// Unarmed, it only counts (calibration). RunCrashPoints (workloads.h) arms a
// sorted sample and validates every point in one pass. Arm() is the
// one-target case that throws CrashSignal out of the store path; the caller
// catches it and materializes the durable image at `crash_now()`.
//
// Determinism: events are generated by the (deterministic) simulator in
// program order, so the same workload + the same target index always lands
// on the same simulated cycle with the same durable image.

#ifndef SRC_CRASH_CRASH_INJECTOR_H_
#define SRC_CRASH_CRASH_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/types.h"

namespace pmemsim {

// The persistence boundaries a crash can land on.
enum class CrashEventKind : uint8_t {
  kWpqAccept = 0,  // a persist-path write entered the ADR domain
  kWpqDrain = 1,   // a WPQ entry handed off to the DIMM write buffer
  kFence = 2,      // an sfence/mfence completed
};

const char* CrashEventKindName(CrashEventKind kind);

// Thrown from inside a simulated persist operation when the crash point
// armed by Arm() fires. Carries no state: the injector records the event.
struct CrashSignal {};

class CrashInjector {
 public:
  // Runs at a targeted event, inside the simulated operation that produced it.
  using Action = std::function<void(uint64_t event_index, CrashEventKind kind, Cycles crash_now)>;

  // Runs `action` at each of `targets` (strictly increasing event indexes,
  // 0-based, counted from PersistTracker::StartEvents). Call before the run
  // starts.
  void ArmAll(std::vector<uint64_t> targets, Action action);

  // Crash at the `event_index`-th event: records its kind and cycle, then
  // throws CrashSignal. Call before the run starts.
  void Arm(uint64_t event_index);

  // Called by the tracker for every event. Non-target events only count.
  void OnEvent(CrashEventKind kind, Cycles crash_now) {
    const uint64_t index = count_++;
    if (index == next_target_) {
      ++next_;  // advance first: the action may throw
      next_target_ = next_ < targets_.size() ? targets_[next_] : kNoTarget;
      action_(index, kind, crash_now);
    }
  }

  uint64_t events_seen() const { return count_; }
  // The event Arm()'s crash landed on.
  CrashEventKind fired_kind() const { return fired_kind_; }
  // The simulated cycle the crash models: the event's persist point. Writes
  // with accepted_at <= crash_now() are durable in the materialized image.
  Cycles crash_now() const { return crash_now_; }

 private:
  static constexpr uint64_t kNoTarget = ~uint64_t{0};

  std::vector<uint64_t> targets_;
  size_t next_ = 0;  // targets_[next_] is the next to fire
  uint64_t next_target_ = kNoTarget;
  uint64_t count_ = 0;
  Action action_;
  CrashEventKind fired_kind_ = CrashEventKind::kWpqAccept;
  Cycles crash_now_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_CRASH_CRASH_INJECTOR_H_
