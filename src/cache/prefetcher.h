// CPU cache prefetchers (paper §3.4).
//
// The testbeds expose three BIOS-toggleable prefetchers; each is modeled as a
// simple trigger rule over the per-thread demand stream:
//
//  * adjacent-line ("spatial"): on an L2 demand miss or the first demand touch
//    of a prefetched L2 line, fetch the next cacheline into L2.
//  * DCU streamer (L1): on an ascending demand pair (line == prev + 64), fetch
//    the next cacheline into L1.
//  * L2 hardware stream: tracks per-4KB-page constant strides (any multiple of
//    64 B); after three consecutive matching strides the stream *locks* with a
//    configurable probability (real lock arbitration is fuzzy; stochastic
//    gating reproduces the modest waste of Fig. 6 b/f) and then prefetches
//    `degree` strides ahead on every subsequent match.
//
// All prefetch fills are marked so demand first-touches can be distinguished;
// fills are not charged to the thread clock but do consume DIMM bandwidth —
// exactly the waste mechanism the paper measures: a mispredicted cacheline
// costs 64 B at the iMC but a whole 256 B XPLine at the media.

#ifndef SRC_CACHE_PREFETCHER_H_
#define SRC_CACHE_PREFETCHER_H_

#include <array>
#include <cstdint>

#include "src/common/config.h"
#include "src/common/random.h"
#include "src/common/types.h"

namespace pmemsim {

class CacheHierarchy;

// Deposits its fills straight into the owning CacheHierarchy (PrefetchFill).
class PrefetchEngine {
 public:
  PrefetchEngine(const CacheConfig& config, CacheHierarchy* hierarchy,
                 uint64_t rng_seed = 0xFEEDF00D);

  struct DemandInfo {
    Addr line = 0;
    Cycles now = 0;
    uint8_t hit_level = 0;  // AccessRecord::hit_level: 1..3 = cache level, 0 = memory
    bool first_touch_prefetched = false;  // first demand touch of a prefetched line
  };

  void OnDemandAccess(const DemandInfo& info);

  // Training fast path for the all-prefetchers-disabled configuration: with
  // every prefetcher off, the only state OnDemandAccess changes is the DCU
  // detector's last demand line — record exactly that (`line` must already be
  // cacheline-aligned) without building a DemandInfo or making a call.
  void NoteDemandOnly(Addr line) { last_demand_line_ = line; }

  void SetEnabled(bool adjacent, bool dcu, bool stream);
  bool any_enabled() const { return adjacent_enabled_ || dcu_enabled_ || stream_enabled_; }

  void Reset();

 private:
  struct StreamEntry {
    Addr page = 0;
    Addr last_line = 0;
    int64_t stride = 0;
    int steps = 0;
    bool locked = false;
    uint64_t lru = 0;
    bool valid = false;
  };

  void StreamTrain(Addr line, Cycles now);

  CacheHierarchy* hierarchy_;
  Rng rng_;
  bool adjacent_enabled_;
  bool dcu_enabled_;
  bool stream_enabled_;
  uint32_t stream_degree_;
  double stream_lock_probability_ = 0.4;

  Addr last_demand_line_ = ~0ull;  // DCU ascending-pair detector
  std::array<StreamEntry, 16> streams_{};
  uint64_t stream_tick_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_CACHE_PREFETCHER_H_
