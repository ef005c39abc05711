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
//
// The stream table holds 16 pages and trains on every demand access that
// misses L1, so its lookup runs on most simulated accesses. It is laid out
// for that: a 16-byte row of page fingerprints (the low byte of each entry's
// page number), a 16-byte row of LRU ages and a 16-bit valid mask, beside
// the entries' training state. A lookup matches the page's fingerprint
// against all 16 lanes at once, ANDs the hits with the valid mask and reads
// only a candidate's page word; a miss fills the first free entry, or else
// evicts the entry of age 15 (the byte-lane primitives of
// src/cache/byte_lanes.h, shared with SetAssocCache's meta line).
//
// The ages order the entries as a tick per touch would. They are a
// permutation of 0..15 that Reset() sets to the identity, and every fill or
// hit touches its entry: it becomes 0 and each younger entry ages by one.
// Touched entries then hold ages 0..k-1 in recency order, ahead of every
// untouched one; a valid entry has been touched since the reset, and no
// valid entry is evicted while one is free, so a full table's age-15 entry
// is its least recently trained page. Which slot a page sits in is not
// observable (a page is in the table at most once), so the table tracks
// the same pages, trains them the same way and draws lock arbitration from
// the generator in the same order as a per-entry tick scan.

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
  // Reads the stream table's entries and ages (tests/stream_reference_test.cc).
  friend struct PrefetchEngineTestPeer;

  static constexpr uint32_t kStreams = 16;

  struct StreamEntry {
    Addr page = 0;
    Addr last_line = 0;
    int64_t stride = 0;
    int steps = 0;
    bool locked = false;
  };

  static constexpr std::array<uint8_t, kStreams> kIdentityAges = {0, 1, 2,  3,  4,  5,  6,  7,
                                                                   8, 9, 10, 11, 12, 13, 14, 15};

  // The low byte of the page number: pages less than 256 pages apart never
  // share it.
  static uint8_t PageFingerprint(Addr page) { return static_cast<uint8_t>(page / kPageSize); }

  void StreamTrain(Addr line, Cycles now);

  CacheHierarchy* hierarchy_;
  Rng rng_;
  bool adjacent_enabled_;
  bool dcu_enabled_;
  bool stream_enabled_;
  uint32_t stream_degree_;
  double stream_lock_probability_ = 0.4;

  Addr last_demand_line_ = ~0ull;  // DCU ascending-pair detector
  std::array<StreamEntry, kStreams> streams_{};
  // The stream table's lanes (see the comment atop this file): entry i's
  // page fingerprint and LRU age, and bit i set iff entry i is valid.
  alignas(16) std::array<uint8_t, kStreams> stream_fps_{};
  alignas(16) std::array<uint8_t, kStreams> stream_ages_ = kIdentityAges;
  uint16_t stream_valid_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_CACHE_PREFETCHER_H_
