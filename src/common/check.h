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
// (still printed to stderr) instead of aborting. Nestable. Each holder
// catches the CheckFailure in the scope that holds the capture, so the
// catching frame still owns whatever the failed run left behind.
class ScopedCheckCapture {
 public:
  ScopedCheckCapture();
  ~ScopedCheckCapture();
  ScopedCheckCapture(const ScopedCheckCapture&) = delete;
  ScopedCheckCapture& operator=(const ScopedCheckCapture&) = delete;
};

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
