#include "src/common/check.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace pmemsim {

namespace {
// Per-thread capture depth: sweep-runner workers enable capture around each
// point; everything else keeps the abort-on-failure contract.
thread_local int g_capture_depth = 0;
// The SetCheckAbortHook hook; null until a sink installs one.
std::atomic<void (*)()> g_abort_hook{nullptr};
}  // namespace

ScopedCheckCapture::ScopedCheckCapture() { ++g_capture_depth; }

ScopedCheckCapture::~ScopedCheckCapture() { --g_capture_depth; }

void SetCheckAbortHook(void (*hook)()) { g_abort_hook.store(hook, std::memory_order_release); }

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
  if (void (*hook)() = g_abort_hook.load(std::memory_order_acquire)) {
    hook();  // the process is going down: last chance to flush
  }
  std::abort();
}

}  // namespace internal
}  // namespace pmemsim
