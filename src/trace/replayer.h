// Deterministic trace replay: feeds a recorded segment's operations back
// through real ThreadContexts in the recorded global order, so every buffer,
// queue, and cache observes the identical request stream and the replayed
// run's counters — and therefore its --stats_json — are byte-identical to
// the original.
//
// The determinism contract (DESIGN.md §8): replay applies records in exactly
// the order they executed during recording (not re-derived from a scheduler),
// and verifies after every operation that the thread's clock equals the
// recorded post-op clock. Any divergence — a changed timing model, a platform
// mismatch that slipped past the fingerprint, a corrupted stream — fails the
// replay at the first diverging record instead of producing silently wrong
// statistics.

#ifndef SRC_TRACE_REPLAYER_H_
#define SRC_TRACE_REPLAYER_H_

#include <functional>
#include <string>

#include "src/core/system.h"
#include "src/trace/recorder.h"

namespace pmemsim {

// Replay hooks. The per-op clock check above is unconditional.
struct ReplayOptions {
  // Fired when a kMarker record is replayed (after the record applies), with
  // the marker id and issuing thread. Harnesses snapshot counters here to
  // reproduce phase-delimited metrics (warm-up vs measurement windows).
  std::function<void(uint32_t id, uint32_t thread)> on_marker;

  // Fired for each thread the replayer creates, before any record applies.
  // Used to restore per-thread configuration the trace does not carry (e.g.
  // prefetcher switches, recorded in segment metadata by the harness).
  std::function<void(ThreadContext& ctx, uint32_t thread)> on_thread_created;
};

struct ReplayResult {
  bool ok = false;
  std::string error;          // set when !ok, names the first diverging record
  uint64_t records_applied = 0;
  Cycles end_clock = 0;       // max thread clock after the replay
};

// Replays `seg` into `system`, which must be freshly constructed on the same
// platform the trace was recorded on (callers compare PlatformFingerprint
// against the file header first). Creates one thread per trace thread-table
// entry, on the recorded NUMA node, in table order — matching the recorder's
// thread-id assignment.
ReplayResult ReplaySegment(const TraceSegment& seg, System& system,
                           const ReplayOptions& opts = {});

}  // namespace pmemsim

#endif  // SRC_TRACE_REPLAYER_H_
