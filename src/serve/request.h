// Request-serving tier (pmemsim_serve): one client request against a shard's
// datastore, tagged with the simulated-time points the service stats need.
//
// A request is born at `arrival` (the client issue time), passes admission at
// some worker's clock >= arrival, waits in the shard's bounded queue, and is
// executed by a worker ThreadContext. Queue wait and service time are derived
// from these stamps by ServiceStats::RecordCompletion.

#ifndef SRC_SERVE_REQUEST_H_
#define SRC_SERVE_REQUEST_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/workload/ycsb.h"

namespace pmemsim {

struct Request {
  ServeOp op = ServeOp::kRead;
  uint64_t key = 0;
  uint32_t scan_len = 0;
  // Closed loop: the issuing client's id (its re-issue identity).
  // Open loop: the arrival's sequence number within its shard.
  uint32_t client = 0;
  Cycles arrival = 0;
  // Admission time: the worker clock at which the queue accepted this
  // request (RequestQueue::Offer's `now`).
  Cycles admit = 0;
};

}  // namespace pmemsim

#endif  // SRC_SERVE_REQUEST_H_
