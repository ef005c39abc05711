// Optional chrome://tracing (catapult JSON) event emitter for debugging model
// changes: WPQ occupancy, write-buffer allocations/evictions, periodic
// write-backs. Disabled by default; the only cost on the hot path is one
// branch on `enabled()`. Enable per-run via the benches' --trace_out=<path>
// flag or TraceEmitter::Global().Enable(path).
//
// Timestamps are simulated cycles reported in the trace's microsecond field,
// so one trace "us" == one model cycle. Each emitting component registers a
// named track (rendered as a thread row in the viewer) to keep per-DIMM
// streams separate.
//
// The emitter is process-wide and the sweep runner constructs Systems on
// worker threads, so track registration and event pushes are mutex-guarded.
// (The interleaving of events from concurrently running sweep points is not
// deterministic; the runner pins tracing runs to --jobs=1 for that reason.)

#ifndef SRC_TRACE_TRACE_EVENTS_H_
#define SRC_TRACE_TRACE_EVENTS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace pmemsim {

class TraceEmitter {
 public:
  // Process-wide instance: the emitter is a debugging tap, and threading it
  // through every component constructor would dwarf the feature.
  static TraceEmitter& Global();

  // Starts buffering events; they are written to `path` on Flush()/Disable().
  void Enable(const std::string& path);
  // Flushes and stops emitting. Returns false if the file write failed.
  bool Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Tracks render as separate rows in the viewer. Returns a track id to pass
  // to the event calls; track 0 is a default "sim" row. Thread-safe.
  int RegisterTrack(const std::string& name);

  // Instant event ("i" phase), e.g. an eviction.
  void Instant(int track, const std::string& name, Cycles ts);
  // Instant event with one numeric argument, e.g. a batch write-back count.
  void Instant(int track, const std::string& name, Cycles ts, const std::string& arg_name,
               double arg_value);
  // Counter series ("C" phase), e.g. WPQ occupancy over time.
  void CounterEvent(int track, const std::string& name, Cycles ts, double value);

  // Writes the buffered events as {"traceEvents": [...]}; keeps emitting.
  bool Flush();

 private:
  struct Event {
    char phase;  // 'i' or 'C'
    int track;
    std::string name;
    Cycles ts;
    bool has_arg = false;
    std::string arg_name;
    double arg_value = 0.0;
  };

  void Push(Event e);
  bool FlushLocked();

  // Bounds memory for long runs; beyond this, events are counted as dropped.
  static constexpr size_t kMaxEvents = 1 << 22;

  // Guards tracks_, events_, dropped_, path_ against concurrent sweep-point
  // workers (System construction registers per-DIMM tracks).
  std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::string path_;
  std::vector<std::string> tracks_;
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_TRACE_EVENTS_H_
