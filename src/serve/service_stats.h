// Per-shard (and merged global) service statistics for the serving tier.
//
// Three latency views per completed request, all in simulated cycles:
//   queue wait = service start - arrival  (admission + queue + batch delay)
//   service    = completion - service start (the datastore op on the worker)
//   sojourn    = completion - arrival     (what the client experiences)
// The exact totals satisfy sojourn == wait + service per request, so the
// summed identity is gated by tests. Tail percentiles (p50/p99/p999) come
// from Histogram::Quantile, the histogram's one exact-rank estimator.

#ifndef SRC_SERVE_SERVICE_STATS_H_
#define SRC_SERVE_SERVICE_STATS_H_

#include <cstdint>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/serve/request.h"

namespace pmemsim {

class JsonWriter;

struct ServiceStats {
  uint64_t completed = 0;
  uint64_t op_counts[kServeOpCount] = {};
  uint64_t not_found = 0;  // point reads that missed (diagnostic; 0 in YCSB)
  uint64_t sojourn_total = 0;
  uint64_t wait_total = 0;
  uint64_t service_total = 0;
  Histogram sojourn;
  Histogram wait;
  Histogram service;
  Cycles last_completion = 0;
  // Admission-side counts, copied out of the shard's RequestQueue at the end
  // of the run (kept here so a merged global view is one struct).
  uint64_t offered = 0;
  uint64_t rejected = 0;

  void RecordCompletion(const Request& r, Cycles start, Cycles end);
  void Merge(const ServiceStats& other);

  // Completed ops per second of simulated time over [serve_start,
  // last_completion], at `cpu_ghz` cycles per nanosecond * ghz.
  double OpsPerSec(double cpu_ghz, Cycles serve_start) const;

  // {"offered":..,"rejected":..,"completed":..,"not_found":..,
  //  "ops":{"read":..,..},"ops_per_sec":..,"last_completion":..,
  //  "sojourn_p50":..,"sojourn_p99":..,"sojourn_p999":..,   (exact-rank)
  //  "latency":{"sojourn":{hist},"queue_wait":{hist},"service":{hist}}}
  void ToJson(JsonWriter& w, double cpu_ghz, Cycles serve_start) const;
};

}  // namespace pmemsim

#endif  // SRC_SERVE_SERVICE_STATS_H_
