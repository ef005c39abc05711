#include "src/common/check.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>

namespace pmemsim {

namespace {
// Per-thread capture depth: sweep-runner workers enable capture around each
// point; everything else keeps the abort-on-failure contract.
thread_local int g_capture_depth = 0;
// Hook table for RegisterCaptureUnwindHook. CAS-appended (registration may
// race sweep workers failing), never cleared; hooks are trampolines that
// consult their own (clearable) state.
constexpr int kMaxUnwindHooks = 4;
std::atomic<void (*)()> g_unwind_hooks[kMaxUnwindHooks]{};

void RunUnwindHook() {
  for (auto& slot : g_unwind_hooks) {
    if (void (*hook)() = slot.load(std::memory_order_acquire)) {
      hook();
    }
  }
}
}  // namespace

ScopedCheckCapture::ScopedCheckCapture() : uncaught_(std::uncaught_exceptions()) {
  ++g_capture_depth;
}

ScopedCheckCapture::~ScopedCheckCapture() {
  --g_capture_depth;
  // Unwinding from a failure inside the scope: give buffered debug sinks
  // (the trace emitter) a chance to persist before the catch discards state.
  if (std::uncaught_exceptions() > uncaught_) {
    RunUnwindHook();
  }
}

bool RegisterCaptureUnwindHook(void (*hook)()) {
  for (auto& slot : g_unwind_hooks) {
    void (*cur)() = slot.load(std::memory_order_acquire);
    if (cur == hook) {
      return true;  // idempotent: tools register once per process, lazily
    }
    if (cur == nullptr) {
      void (*expected)() = nullptr;
      if (slot.compare_exchange_strong(expected, hook, std::memory_order_acq_rel)) {
        return true;
      }
      if (expected == hook) {
        return true;  // lost the race to ourselves on another thread
      }
    }
  }
  return false;
}

namespace internal {

void CheckFailed(const char* file, int line, const char* cond, const char* msg) {
  char buf[512];
  if (msg != nullptr) {
    std::snprintf(buf, sizeof(buf), "CHECK failed at %s:%d: %s (%s)", file, line, cond, msg);
  } else {
    std::snprintf(buf, sizeof(buf), "CHECK failed at %s:%d: %s", file, line, cond);
  }
  std::fprintf(stderr, "%s\n", buf);
  if (g_capture_depth > 0) {
    throw CheckFailure(buf);
  }
  RunUnwindHook();  // the process is going down: last chance to flush
  std::abort();
}

}  // namespace internal
}  // namespace pmemsim
