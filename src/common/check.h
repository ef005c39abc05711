// Lightweight invariant-checking macros.
//
// The simulator is deterministic; invariant violations are programming errors,
// so CHECK aborts with a message rather than throwing. DCHECK compiles away in
// release builds and is used on hot paths.
//
// Exception: harnesses that run many independent simulations in one process
// (the bench sweep runner) can scope a ScopedCheckCapture around each run;
// within that scope a failed CHECK on the same thread throws CheckFailure
// instead of aborting, so one bad sweep point cannot kill the whole sweep.

#ifndef SRC_COMMON_CHECK_H_
#define SRC_COMMON_CHECK_H_

#include <stdexcept>
#include <string>

namespace pmemsim {

// Thrown for a failed CHECK while a ScopedCheckCapture is active on the
// failing thread. what() carries the file:line and condition text.
class CheckFailure : public std::runtime_error {
 public:
  explicit CheckFailure(const std::string& what) : std::runtime_error(what) {}
};

// While alive, failed CHECKs on the constructing thread throw CheckFailure
// (still printed to stderr) instead of aborting. Nestable.
class ScopedCheckCapture {
 public:
  ScopedCheckCapture();
  ~ScopedCheckCapture();
  ScopedCheckCapture(const ScopedCheckCapture&) = delete;
  ScopedCheckCapture& operator=(const ScopedCheckCapture&) = delete;

 private:
  // Uncaught-exception count at construction: a higher count at destruction
  // means this scope is unwinding from a failure (see RegisterCaptureUnwindHook).
  int uncaught_ = 0;
};

// Registers a process-wide hook invoked whenever invariant failure tears
// execution down: when a ScopedCheckCapture unwinds because an exception is
// propagating through it, and just before a non-captured CHECK failure
// aborts. Debug sinks holding buffered state use it to get that state onto
// disk before it is lost — the trace emitter flushes its event buffer so a
// failed sweep point's trace survives the failure-isolation catch (and a hard
// abort). Appends `hook` to a small fixed table unless already present
// (idempotent); returns false when the table is full. Hooks cannot be
// removed, so register a trampoline that consults its own state rather than
// a state-owning function. Hooks must be safe to call multiple times.
bool RegisterCaptureUnwindHook(void (*hook)());

namespace internal {
// Prints the failure, then throws CheckFailure (capture active) or aborts.
[[noreturn]] void CheckFailed(const char* file, int line, const char* cond, const char* msg);
}  // namespace internal

}  // namespace pmemsim

#define PMEMSIM_CHECK(cond)                                                \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::pmemsim::internal::CheckFailed(__FILE__, __LINE__, #cond, nullptr); \
    }                                                                      \
  } while (0)

#define PMEMSIM_CHECK_MSG(cond, msg)                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::pmemsim::internal::CheckFailed(__FILE__, __LINE__, #cond, (msg)); \
    }                                                                    \
  } while (0)

#ifdef NDEBUG
#define PMEMSIM_DCHECK(cond) \
  do {                       \
  } while (0)
#else
#define PMEMSIM_DCHECK(cond) PMEMSIM_CHECK(cond)
#endif

#endif  // SRC_COMMON_CHECK_H_
