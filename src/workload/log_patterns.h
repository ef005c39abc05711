// Log-structured write patterns: the three small workloads behind
// pmemsim_trace's record/replay scenarios (DESIGN.md §8).
//
//  - log_store: persistent log append. Each append streams a value into the
//    next log slot (wrapping within a fixed arena), fences, then commits by
//    bumping one of a small set of rotating counter slots with a
//    store + clwb + sfence sequence — the classic "append then publish"
//    shape whose commit lines are re-dirtied every `counter_slots` appends.
//  - circular_writes: Raft-style circular log. Each round bumps a version
//    word and non-temporally rewrites buffer (i % num_buffers) in full, then
//    fences — sized against the XPBuffer, the buffer-count/write-size plane
//    sweeps the on-DIMM write-buffer hit ratio.
//  - cacheline_versions: per-cacheline version stamping. Each round stamps a
//    version into every cacheline head of a flat arena, rewrites the arena
//    body, then re-stamps and flushes — the torn-write detection idiom whose
//    double touch per line doubles front-end stores without doubling media
//    writes.
//
// Each instance owns its own regions (Setup uses the System bump allocator),
// so multi-threaded runs give every thread a private instance and regions
// stay disjoint by construction.

#ifndef SRC_WORKLOAD_LOG_PATTERNS_H_
#define SRC_WORKLOAD_LOG_PATTERNS_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "src/core/system.h"
#include "src/cpu/thread_context.h"

namespace pmemsim {

struct LogPatternOptions {
  uint64_t ops = 1000;            // appends / write rounds per thread
  uint64_t seed = 1;              // payload-content seed
  uint64_t value_bytes = 128;     // log_store: payload per append
  uint64_t counter_slots = 4;     // log_store: rotating commit-counter slots
  uint64_t log_bytes = MiB(1);    // log_store: arena size (appends wrap)
  uint64_t write_bytes = 256;     // circular_writes: bytes per round
  uint64_t num_buffers = 16;      // circular_writes: ring length
  uint64_t buffer_bytes = KiB(4); // cacheline_versions: arena size
};

class LogPatternWorkload {
 public:
  virtual ~LogPatternWorkload() = default;

  // Allocates this instance's PM regions. Call once, before Run/RunOne.
  virtual void Setup(System& system) = 0;
  // Performs operation `i` (call with i = 0, 1, ... opts.ops-1 in order; the
  // payload generator is sequential state). Exposed so multi-threaded runs
  // can interleave threads one operation at a time under the Scheduler.
  virtual void RunOne(ThreadContext& ctx, uint64_t i) = 0;
  // Performs all opts.ops operations. Deterministic for fixed options.
  void Run(ThreadContext& ctx);

  uint64_t ops() const { return ops_; }

  // Factory: log_store, circular_writes or cacheline_versions; returns
  // nullptr for unknown names.
  static std::unique_ptr<LogPatternWorkload> Create(std::string_view name,
                                                    const LogPatternOptions& opts);

 protected:
  explicit LogPatternWorkload(uint64_t ops) : ops_(ops) {}

 private:
  uint64_t ops_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_WORKLOAD_LOG_PATTERNS_H_
