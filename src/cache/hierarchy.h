// Per-thread cache hierarchy: private L1d + L2 over a shared L3, with the
// flush instruction semantics that drive the paper's G1/G2 differences and
// the prefetch engine attached to the demand stream.

#ifndef SRC_CACHE_HIERARCHY_H_
#define SRC_CACHE_HIERARCHY_H_

#include <array>

#include "src/cache/cache.h"
#include "src/cache/prefetcher.h"
#include "src/common/access_record.h"
#include "src/common/config.h"
#include "src/common/types.h"
#include "src/imc/memory_controller.h"
#include "src/trace/counters.h"

namespace pmemsim {

struct FlushResult {
  bool wrote = false;      // a write-back entered the WPQ
  Cycles accepted_at = 0;  // persist point, if wrote
  Cycles cost = 0;         // cycles charged to the issuing thread
};

class CacheHierarchy {
 public:
  CacheHierarchy(const CacheConfig& config, SetAssocCache* shared_l3, MemoryController* mc,
                 Counters* counters, NodeId node, uint64_t rng_seed = 0xFEEDF00D);

  // Demand cacheline load/store (store = RFO + dirty mark, write-allocate).
  // `train` = false suppresses prefetcher training (AVX streaming path).
  // Both write the shared in-place record `out` (see
  // src/common/access_record.h), which must arrive value-initialized
  // (arena-allocated records are).
  void Load(Addr addr, Cycles now, bool ordered, bool train, AccessRecord* out);
  void Store(Addr addr, Cycles now, AccessRecord* out);

  // clwb (`invalidate` = false) or clflushopt (true): writes back a dirty
  // copy and schedules the line's invalidation after the dispatch window.
  // Only a clwb on a platform whose clwb retains the line (G2) keeps it
  // cached, clean.
  FlushResult Flush(Addr addr, Cycles now, bool invalidate);

  // Removes the line everywhere immediately (nt-store snoop-invalidate).
  void InvalidateAll(Addr addr);

  // Applies any scheduled invalidation for the line (mfence ordering).
  void ForcePendingInvalidate(Addr addr);

  bool ProbeAny(Addr addr, Cycles now) const;

  // The prefetch engine's fill: a line into L2 (+L3), or L1 for the DCU
  // streamer. Never charged to the thread clock.
  void PrefetchFill(Addr line_addr, Cycles now, bool into_l1);

  PrefetchEngine& prefetch_engine() { return engine_; }
  SetAssocCache& l1() { return l1_; }
  SetAssocCache& l2() { return l2_; }
  SetAssocCache& shared_l3() { return *l3_; }

  // Drops private-cache state (benchmark warm-boundary helper).
  void ClearPrivate();

 private:
  static constexpr int kLevels = 3;

  void AccessInternal(Addr addr, Cycles now, bool is_store, bool ordered, bool train,
                      AccessRecord* out);
  // Trains the prefetch engine on a demand access; with every prefetcher
  // disabled it collapses to the one state change that path performs.
  void TrainEngine(const PrefetchEngine::DemandInfo& info) {
    if (engine_.any_enabled()) {
      engine_.OnDemandAccess(info);
    } else {
      engine_.NoteDemandOnly(info.line);
    }
  }
  using LevelLookups = std::array<SetAssocCache::Located, kLevels>;
  // Fills levels k-1 ... top (0 = L1), nearest to memory first, after a hit
  // at level k (k == kLevels: memory). `at[j]` is level j's lookup of the
  // line; fills only cascade to higher levels, so each lookup is still
  // current when its level is filled. Only the L1 copy of a store is dirty.
  void FillAbove(int k, int top, const LevelLookups& at, Addr line, Cycles now, bool store,
                 bool prefetched, Cycles ready_at);
  // Inserts into level k at `at`, cascading a dirty victim into level k+1
  // or, past the L3, into the iMC.
  void FillInto(int k, SetAssocCache::Located at, Addr line, Cycles now, bool dirty,
                bool prefetched, Cycles ready_at);

  CacheConfig config_;
  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache* l3_;
  std::array<SetAssocCache*, kLevels> levels_;  // {L1, L2, L3}: the walk order
  MemoryController* mc_;
  Counters* counters_;
  NodeId node_;
  PrefetchEngine engine_;
  bool in_prefetch_fill_ = false;  // prefetch fills must not re-trigger training
};

}  // namespace pmemsim

#endif  // SRC_CACHE_HIERARCHY_H_
