#include "src/crash/crash_injector.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace pmemsim {

const char* CrashEventKindName(CrashEventKind kind) {
  switch (kind) {
    case CrashEventKind::kWpqAccept:
      return "wpq_accept";
    case CrashEventKind::kWpqDrain:
      return "wpq_drain";
    case CrashEventKind::kFence:
      return "fence";
  }
  return "unknown";
}

void CrashInjector::ArmAll(std::vector<uint64_t> targets, Action action) {
  PMEMSIM_CHECK_MSG(
      std::adjacent_find(targets.begin(), targets.end(), std::greater_equal<>()) == targets.end(),
      "crash targets must be strictly increasing");
  targets_ = std::move(targets);
  action_ = std::move(action);
  next_ = 0;
  next_target_ = targets_.empty() ? kNoTarget : targets_.front();
}

void CrashInjector::Arm(uint64_t event_index) {
  ArmAll({event_index}, [this](uint64_t, CrashEventKind kind, Cycles crash_now) {
    fired_kind_ = kind;
    crash_now_ = crash_now;
    throw CrashSignal{};
  });
}

}  // namespace pmemsim
