// Per-request spans for the serving tier: one record per completed request
// capturing the full lifecycle timestamps (arrival -> admit -> start -> end)
// plus the per-stage service-time decomposition read out of the shard's
// AttributionCollector around the request's Execute call.
//
// Conservation contract (checked at Record time, gated by tests and
// scripts/check_timeline.py):
//   arrival <= admit <= start <= end            (lifecycle order)
//   (admit-arrival) + (start-admit) + (end-start) == end-arrival  (exact)
//   sum(stages) == end - start                  (stage partition of service)
// The stage partition follows the attribution layer's convention: the
// recorder credits any service time the per-access stages do not cover
// (AddCompute advances, issue costs) to the kCore stage, so the identity is
// exact by construction rather than approximate.
//
// Recording is pay-for-use: shards test one pointer per completion when no
// recorder is installed. A recorder is single-(OS-)thread confined to its
// shard's engine (the lockstep scheduler, or one domain's host thread in the
// epoch loop), so recording needs no synchronization; per-shard span
// vectors are concatenated in shard-index order at export, which keeps the
// serialized form byte-identical across --jobs and --engine_threads.

#ifndef SRC_TRACE_SPAN_H_
#define SRC_TRACE_SPAN_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/trace/attribution.h"

namespace pmemsim {

struct RequestSpan {
  uint32_t shard = 0;
  uint32_t client = 0;  // closed loop: client id; open loop: arrival sequence
  uint8_t op = 0;       // ServeOp index (names resolved at export)
  Cycles arrival = 0;   // client issue time
  Cycles admit = 0;     // admission into the bounded queue
  Cycles start = 0;     // worker begins Execute
  Cycles end = 0;       // completion

  Cycles wait() const { return start - arrival; }
  Cycles service() const { return end - start; }
  Cycles sojourn() const { return end - arrival; }

  // Service-time decomposition; sums to service() exactly (remainder in
  // kCore). Indexed by AttributionCollector::Stage.
  Cycles stages[AttributionCollector::kStageCount] = {};
};

class SpanRecorder {
 public:
  // Bounds memory for pathological op budgets; excess spans are counted in
  // dropped() and omitted (the windowed metrics still see every event).
  static constexpr size_t kMaxSpans = size_t{1} << 20;

  explicit SpanRecorder(uint32_t shard) : shard_(shard) {}

  // Records one completed request. `stage_deltas` holds the shard collector's
  // per-stage totals accumulated across this request's Execute (kStageCount
  // entries); the service-time remainder is credited to kCore here. CHECKs
  // the lifecycle order and that the stages do not exceed the service time.
  void Record(uint32_t client, uint8_t op, Cycles arrival, Cycles admit, Cycles start, Cycles end,
              const Cycles* stage_deltas);

  uint32_t shard() const { return shard_; }
  const std::vector<RequestSpan>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint32_t shard_;
  std::vector<RequestSpan> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_SPAN_H_
