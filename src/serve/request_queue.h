// Bounded per-shard admission queue with batched claim.
//
// Admission control is a hard queue-depth bound: an arrival that finds the
// queue full is shed (counted, never retried by the queue itself — the loop
// model decides whether the client retries). Workers claim FIFO batches of up
// to `max` requests in one operation, which amortizes queue bookkeeping the
// way real servers batch their accept/dispatch loops.
//
// A domain builds its queue fresh and first offers to it when the measured
// serve phase opens, so offered/rejected/max_occupancy count exactly that
// phase.
//
// The queue is single-(OS-)threaded like the rest of the simulator: arrivals
// and claims are interleaved in simulated-clock order by the lockstep
// scheduler, so occupancy evolves exactly as the event order dictates and the
// shed decisions are deterministic for a given seed.

#ifndef SRC_SERVE_REQUEST_QUEUE_H_
#define SRC_SERVE_REQUEST_QUEUE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/serve/request.h"

namespace pmemsim {

class RequestQueue {
 public:
  explicit RequestQueue(size_t depth);

  // Admits `r` if the queue holds fewer than `depth` requests; returns false
  // (and counts the shed) when full. Every call counts as one offered op.
  // `now` is the admitting worker's clock, stamped into the request's admit
  // field (the span layer's queue-entry time).
  bool Offer(const Request& r, Cycles now);

  // Pops up to `max` requests FIFO into `out` (appended). Returns the number
  // claimed.
  size_t ClaimBatch(size_t max, std::vector<Request>* out);

  bool empty() const { return q_.empty(); }
  size_t size() const { return q_.size(); }
  size_t depth() const { return depth_; }
  uint64_t offered() const { return offered_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t max_occupancy() const { return max_occupancy_; }

 private:
  std::deque<Request> q_;
  size_t depth_;
  uint64_t offered_ = 0;
  uint64_t rejected_ = 0;
  uint64_t max_occupancy_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_SERVE_REQUEST_QUEUE_H_
