#include "src/common/check.h"

#include <cstdio>
#include <cstdlib>

namespace pmemsim {

namespace {
// Per-thread capture depth: sweep-runner workers enable capture around each
// point; everything else keeps the abort-on-failure contract.
thread_local int g_capture_depth = 0;
}  // namespace

ScopedCheckCapture::ScopedCheckCapture() { ++g_capture_depth; }

ScopedCheckCapture::~ScopedCheckCapture() { --g_capture_depth; }

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
  std::abort();
}

}  // namespace internal
}  // namespace pmemsim
