// Per-access latency attribution: where each demand access's cycles went.
//
// The paper explains latency by decomposing it along the access path — core
// issue, cache walk, iMC transit, read-after-persist stalls, on-DIMM buffer
// service, AIT translation, media port waits, WPQ acceptance — and so do the
// companion characterizations (Izraelevitz et al.; Yang et al., FAST '20).
// This module reproduces that decomposition in the model.
//
// Mechanics: the memory side of the path reports its components *in the
// access's own record* (the DIMM, then the iMC, write their MemStageBreakdown
// shares into the one AccessRecord the hierarchy walk carries), so nothing on
// the hot path consults a collector — the components are plain field writes
// already computed by the timing code.
// ThreadContext is the single recording point: when a collector is installed
// (System::SetAttribution, pmemsim_watch's --breakdown flag), each operation
// records its end-to-end latency and the reported stages; the unattributed
// remainder (issue costs, cache-walk latency, SMT scaling) lands in the
// `core` stage, so per-stage totals sum to end-to-end latency EXACTLY — the
// conservation identity tests/attribution_test.cc gates on. When no collector
// is installed the only cost is one pointer test per operation.
//
// With a collector installed, recording costs what the access has. A cache
// hit, a store, an nt-store/flush persist and a fence each have one non-core
// stage and take the header-inline RecordStage: one op-histogram sample and
// at most two stage samples, the bucket computed once when one stage takes
// the whole latency (every load hit). Only a full miss (RecordMiss) reads the
// six MemStageBreakdown fields. Serving always records (each shard's stats
// embed its collector); there recording takes ~3.5% of sampled host time
// (perfbench serve on a 4-core host, DESIGN.md section 7).
//
// Synchronous vs asynchronous: DDR-T persists are accepted long after the
// issuing store retires, so WPQ acceptance delay is *not* part of a store's
// end-to-end latency — it surfaces at fences (recorded as the wpq_wait stage
// of the fence op) and is additionally tracked per nt-store/flush in the
// async_accept histogram, which deliberately sits outside the conservation
// identity.

#ifndef SRC_TRACE_ATTRIBUTION_H_
#define SRC_TRACE_ATTRIBUTION_H_

#include <cstdint>
#include <string>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace pmemsim {

class JsonWriter;

// Memory-side latency components of one demand access, threaded up through
// the result structs. Each producer guarantees the populated fields sum to
// the span it reports (DIMM: complete_at - now; iMC adds its transit), so a
// full cache miss's breakdown sums exactly to the memory access latency.
struct MemStageBreakdown {
  Cycles imc_transit = 0;  // iMC processing + interconnect hops
  Cycles rap_stall = 0;    // read-after-persist wait (write in flight)
  Cycles buffer = 0;       // on-DIMM buffer service (DDR-T round trip)
  Cycles ait = 0;          // address-indirection-table translation
  Cycles media = 0;        // 3D-Xpoint port wait + XPLine fetch
  Cycles dram = 0;         // conventional-DRAM service (DRAM-routed reads)
};

class AttributionCollector {
 public:
  enum Op : uint8_t { kLoad, kStore, kNtStore, kFlush, kFence, kOpCount };
  enum Stage : uint8_t {
    kCore,  // issue/retire costs, cache-walk latency, SMT scaling remainder
    kL1Hit,
    kL2Hit,
    kL3Hit,
    kImcTransit,
    kRapStall,
    kReadBuffer,
    kAitLookup,
    kMediaRead,
    kDram,
    kWpqWait,  // fence-time wait for outstanding persist acceptance
    kStageCount
  };

  static const char* OpName(Op op);
  static const char* StageName(Stage stage);

  // The two recording paths. Each records one completed operation of
  // `end_to_end` cycles and credits what its stages leave unattributed to
  // kCore, so conservation holds per access.
  //
  // An operation with one non-core stage: a cache hit, a store, an
  // nt-store/flush persist or a fence. `stage` takes `cycles` (at most
  // `end_to_end`); a pure-core operation passes kCore with 0 cycles.
  void RecordStage(Op op, Cycles end_to_end, Stage stage, Cycles cycles);
  // A full cache miss: the memory stages are the fields of `mem`, whose sum
  // must not exceed `end_to_end`.
  void RecordMiss(Op op, Cycles end_to_end, const MemStageBreakdown& mem);

  // Records an asynchronous persist-acceptance delay (nt-store/flush issue to
  // WPQ acceptance). Outside the conservation identity by design.
  void RecordAsyncAccept(Cycles delay);

  uint64_t access_count() const { return access_count_; }
  uint64_t end_to_end_total() const { return end_to_end_total_; }
  uint64_t stage_total(Stage stage) const { return stage_total_[stage]; }
  uint64_t StageTotalSum() const;
  const Histogram& op_hist(Op op) const { return op_hist_[op]; }
  const Histogram& async_accept_hist() const { return async_accept_hist_; }

  // {"accesses":N,"end_to_end_total":..,"ops":{load:{hist}..},
  //  "stages":{core:{"total_cycles":..,"share":..,hist}..},
  //  "async":{"wpq_accept":{hist}}}
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

  // Human-readable critical-path table: one row per stage, sorted by total
  // cycles, with share-of-total and percentiles (pmemsim_watch/--breakdown).
  std::string CriticalPathTable() const;

 private:
  friend struct AttributionCollectorTestPeer;

  // The bookkeeping both recording paths share. CountOp counts the operation
  // and files its end-to-end latency, returning that latency's histogram
  // bucket so a stage taking the whole latency reuses it; Credit adds
  // `cycles` (non-zero, in histogram bucket `bucket`) to `stage`.
  int CountOp(Op op, Cycles end_to_end);
  void Credit(Stage stage, Cycles cycles, int bucket);
  void Credit(Stage stage, Cycles cycles);

  Histogram op_hist_[kOpCount];
  Histogram stage_hist_[kStageCount];
  Histogram async_accept_hist_;
  uint64_t stage_total_[kStageCount] = {};
  uint64_t end_to_end_total_ = 0;
  uint64_t access_count_ = 0;
};

inline int AttributionCollector::CountOp(Op op, Cycles end_to_end) {
  ++access_count_;
  end_to_end_total_ += end_to_end;
  const int bucket = Histogram::BucketFor(end_to_end);
  op_hist_[op].Add(end_to_end, bucket);
  return bucket;
}

inline void AttributionCollector::Credit(Stage stage, Cycles cycles, int bucket) {
  stage_total_[stage] += cycles;
  stage_hist_[stage].Add(cycles, bucket);
}

inline void AttributionCollector::Credit(Stage stage, Cycles cycles) {
  if (cycles != 0) {
    Credit(stage, cycles, Histogram::BucketFor(cycles));
  }
}

inline void AttributionCollector::RecordStage(Op op, Cycles end_to_end, Stage stage,
                                              Cycles cycles) {
  PMEMSIM_DCHECK(stage != kCore || cycles == 0);
  PMEMSIM_CHECK_MSG(cycles <= end_to_end, "attribution: stage exceeds end-to-end latency");
  const int bucket = CountOp(op, end_to_end);
  const Cycles core = end_to_end - cycles;
  if (core == 0) {
    if (cycles != 0) {
      Credit(stage, cycles, bucket);  // a load hit: the stage is the whole latency
    }
  } else if (cycles == 0) {
    Credit(kCore, core, bucket);
  } else {
    Credit(kCore, core);
    Credit(stage, cycles);
  }
}

inline void AttributionCollector::RecordMiss(Op op, Cycles end_to_end,
                                             const MemStageBreakdown& mem) {
  const Cycles attributed =
      mem.imc_transit + mem.rap_stall + mem.buffer + mem.ait + mem.media + mem.dram;
  PMEMSIM_CHECK_MSG(attributed <= end_to_end,
                    "attribution: stage sum exceeds end-to-end latency");
  CountOp(op, end_to_end);
  Credit(kCore, end_to_end - attributed);
  Credit(kImcTransit, mem.imc_transit);
  Credit(kRapStall, mem.rap_stall);
  Credit(kReadBuffer, mem.buffer);
  Credit(kAitLookup, mem.ait);
  Credit(kMediaRead, mem.media);
  Credit(kDram, mem.dram);
}

}  // namespace pmemsim

#endif  // SRC_TRACE_ATTRIBUTION_H_
