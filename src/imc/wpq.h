// Write Pending Queue: the per-DIMM store queue inside the iMC's ADR domain.
//
// DDR-T stores are asynchronous (paper §1, §3.5): a store/flush *persists* the
// moment it is accepted into the WPQ, long before the data reaches the DIMM's
// write buffer or the 3D-Xpoint media. The WPQ is bounded; when the DIMM's
// write path backs up (media write ports saturated), acceptance stalls and
// store latency finally becomes visible to the program.

#ifndef SRC_IMC_WPQ_H_
#define SRC_IMC_WPQ_H_

#include <cstdint>
#include <deque>

#include "src/common/config.h"
#include "src/common/types.h"
#include "src/trace/counters.h"

namespace pmemsim {

class Wpq {
 public:
  Wpq(const WpqConfig& config, Counters* counters);

  struct AcceptResult {
    Cycles accepted_at = 0;  // persist point (what fences wait for)
    Cycles drained_at = 0;   // when the entry reaches the DIMM write buffer
  };

  // Accepts a 64 B entry arriving at `now`. If the queue is full, acceptance
  // waits for the oldest entry to drain (counted as wpq_stall_cycles).
  // DIMM back-pressure on the drain start arrives through DelayDrain.
  AcceptResult Accept(Cycles now);

  // Registers extra back-pressure discovered after the previous drain (the
  // DIMM reports eviction pressure only once the write lands).
  void DelayDrain(Cycles until);

  size_t OccupancyAt(Cycles now) const;

  void Reset();

 private:
  WpqConfig config_;
  Counters* counters_;

  // Drain-completion times of entries still logically in the queue.
  std::deque<Cycles> inflight_;
  Cycles drain_free_at_ = 0;  // single drain port
};

}  // namespace pmemsim

#endif  // SRC_IMC_WPQ_H_
