// Set-associative write-back cache with LRU replacement and lazy, timed
// invalidation (used to model the window between a clwb retiring and its
// cache-side invalidation becoming visible to younger unordered loads on G1).
//
// Storage is struct-of-arrays, tuned for the scan-dominated access pattern:
// every simulated load probes (and every nt-store snoops) all ways of a set
// in each level, and most of those scans miss. A set's state is one
// contiguous 64 B-aligned block whose first host line is its meta line: a
// 1-byte tag fingerprint and a 1-byte LRU age per way (up to 32 ways each).
// A lookup compares the fingerprints and reads a tag word only for a way
// whose fingerprint matches, so a miss reads the meta line alone, and the
// LRU touch and victim pick that follow a lookup stay on that same line.
// The per-way tag word behind it packs the 64-aligned line tag with the
// valid/dirty/prefetched flags in its low bits. A per-set valid-way bitmask
// drives every scan — probes, snoops and victim picks see only occupied
// ways, and an nt-store stream invalidating against caches it never fills
// (the ntstore hot-path shape) costs one load per level instead of a meta
// line. The dominant cost at simulation scale is host cache misses on these
// arrays, not instructions. Way-order semantics — victim choice, LRU
// updates, lazy invalidation — are identical to the straightforward
// array-of-structs implementation this replaces.
//
// The tag match (Find) has no per-way branch on x86-64: it compares the
// line's fingerprint with every fingerprint byte of the set at once
// (MatchLanes), ANDs the hits with the valid mask, and confirms each
// candidate against its full tag word. Invalid ways' bytes are stale or were
// never written, so they may match; the mask drops them, and nothing zeroes
// the array. Lanes at `ways` and above (5 for the 11-way L3) are padding in
// the meta line; their bits are never valid. Debug builds check every match
// against FindScalar, a walk over the valid ways' tag words that reads no
// fingerprint.
//
// The ages are a permutation of 0..ways-1 over all of a set's ways: a fill
// into an empty set resets them to the identity, a touch makes its way 0 and
// ages each younger way by one (TouchAges), and a full set evicts the way of
// age ways-1 (OldestLane). Every valid way has been filled since the last
// reset, so the ages order the valid ways by last touch, as per-way LRU
// ticks would.
//
// The fingerprint match, the age update and the victim pick are the byte-lane
// primitives of src/cache/byte_lanes.h, which the stream prefetcher's table
// shares: SSE2 where it is baseline, with scalar twins that other targets
// run and Debug builds check every vector result against.

#ifndef SRC_CACHE_CACHE_H_
#define SRC_CACHE_CACHE_H_

#include <bit>
#include <cstring>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/cache/byte_lanes.h"
#include "src/common/check.h"
#include "src/common/config.h"
#include "src/common/types.h"

namespace pmemsim {

struct EvictedLine {
  Addr line = 0;
  bool valid = false;
  bool dirty = false;
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheLevelConfig& config);

  // Touches the line if present: updates LRU, optionally marks dirty.
  // Returns true on hit. Applies any due pending invalidation first.
  // `was_prefetched` (optional) reports whether this was the first demand
  // touch of a prefetched line (the flag is cleared by the touch).
  // `available_at` (optional) reports when the data is usable: an in-flight
  // prefetch fill hit is not ready before its memory access completes.
  bool Access(Addr line_addr, Cycles now, bool mark_dirty, bool* was_prefetched = nullptr,
              Cycles* available_at = nullptr);

  static constexpr size_t kNoWay = ~size_t{0};

  // Where a line sits in this level, from its one tag scan. `way` is a handle
  // only this cache interprets (kNoWay: absent). `live` is true iff the line
  // is present and its scheduled invalidation is not yet due.
  struct Located {
    size_t way = kNoWay;
    bool live = false;
  };
  // What a caller hands Insert for a line its Access just missed: a miss has
  // already cleared any due invalidation, so the line is in no way.
  static constexpr Located kAbsent{kNoWay, false};

  // Non-mutating lookup: the line's way, due or not, and whether it is live.
  Located Locate(Addr line_addr, Cycles now) const;

  // Non-mutating presence check (honors pending invalidations).
  bool Probe(Addr line_addr, Cycles now) const { return Locate(line_addr, now).live; }

  // Inserts the line. `at` is this level's lookup of it — Locate's result or
  // kAbsent after a missed Access — and nothing may touch the level between
  // that lookup and this fill. A present line (even with its invalidation
  // due) is refreshed in place; otherwise the set's first free way receives
  // it, evicting the LRU way if there is none. `ready_at` marks when the
  // fill's data arrives (prefetch fills are issued asynchronously).
  EvictedLine Insert(Located at, Addr line_addr, Cycles now, bool dirty, bool prefetched,
                     Cycles ready_at = 0);

  struct InvalidateResult {
    bool was_present = false;
    bool was_dirty = false;
  };

  // Immediate invalidation (clflush/clflushopt effect, nt-store snoop).
  InvalidateResult Invalidate(Addr line_addr);

  // clwb effect: clears dirty. If `retain` (G2) the line stays valid clean;
  // otherwise (G1) it is scheduled to invalidate at `invalidate_at`.
  InvalidateResult WriteBack(Addr line_addr, Cycles invalidate_at, bool retain);

  // Applies a scheduled (pending) invalidation immediately, if one exists.
  // Used by mfence, which orders younger loads after the flush's effects.
  void ApplyPendingInvalidate(Addr line_addr);

  Cycles hit_latency() const { return config_.hit_latency; }
  size_t sets() const { return sets_; }
  uint32_t ways() const { return config_.ways; }

  // Host-side hint: start fetching the set's meta line (fingerprints and
  // ages) ahead of the probe/insert that is about to read it. No simulated
  // effect — purely overlaps the host memory latency of multi-level lookups.
  void PrefetchSet(Addr line_addr) const {
    const size_t set = SetIndex(CacheLineBase(line_addr));
    __builtin_prefetch(&valid_mask_[set]);
    __builtin_prefetch(blocks_.get() + set * stride_);
  }

  void Clear();

 private:
  // Writes raw block words and meta bytes, to stage states no public
  // operation produces (a stale tag word in a lower way naming a line live
  // in a higher one, padding lanes whose bytes match a line).
  friend struct SetAssocCacheTestPeer;

  // Hot per-way word: 64-aligned line tag | flags (line addresses leave the
  // low 6 bits free).
  static constexpr Addr kValid = 1;
  static constexpr Addr kDirty = 2;
  static constexpr Addr kPrefetched = 4;
  static constexpr Addr kTagMask = ~Addr{63};

  // True iff the way holds `line` (a CacheLineBase value) and is valid.
  static bool TagMatches(Addr hot, Addr line) {
    return ((hot ^ line) & (kTagMask | kValid)) == kValid;
  }

  // The line's fingerprint byte: the low byte of its line number over the
  // set count rounded down to a power of two. The lines of one set then step
  // it by at least one each, so lines less than 128 sets' spans apart never
  // share it.
  uint8_t Fingerprint(Addr line) const { return static_cast<uint8_t>(line >> fp_shift_); }

  size_t SetIndex(Addr line_addr) const {
    const uint64_t n = line_addr / kCacheLineSize;
    // Real set counts are usually powers of two; skip the hardware divide
    // when they are (it sits on every probe's address path otherwise).
    if (set_mask_ != 0) {
      return static_cast<size_t>(n & set_mask_);
    }
    // Non-pow2 (the G1/G2 L3s): division-free multiply-shift modulo.
    // With M = ceil(2^64 / d) precomputed, r = mulhi((M * n) mod 2^64, d)
    // equals n % d exactly while n < 2^64/d - d (proof sketch: write
    // n = q*d + r; then M*n mod 2^64 = q*e + M*r where e = M*d - 2^64 < d,
    // and mulhi of that by d is r + floor((q*e + r*e)/2^64)*... = r because
    // q*e + M*r stays below 2^64 under the bound). The constructor enforces
    // the bound for every address the simulator can produce.
    using U128 = unsigned __int128;
    const uint64_t frac = mod_mul_ * n;  // (M * n) mod 2^64
    return static_cast<size_t>(static_cast<uint64_t>((static_cast<U128>(frac) * sets_) >> 64));
  }

  // A set's state is one contiguous 64 B-aligned block of stride_ words —
  // [meta line][tags][ready_at][pending_at] (padded to a whole host line).
  // The meta line holds the fingerprint bytes (bytes 0-31) and the age bytes
  // (bytes 32-63), one per way. The ready_at/pending_at words are cold:
  // per-set ready/pending bitmasks gate every read and write of them, so the
  // demand path never touches those lines at all. Likewise a way's
  // fingerprint and tag word mean something only while its valid bit is set,
  // and the ages only once a fill into the empty set has reset them. Every
  // byte is written before it is read, so the array is never zeroed: an
  // untouched cache costs no host memory, and Clear() is a mask reset.
  // `w` below is a block-coordinate way handle: set * stride_ + way.
  static constexpr size_t kMetaWords = 8;  // one 64 B host line
  static constexpr size_t kAgeOffset = 32;  // bytes: after 32 fingerprints
  uint8_t* Meta(size_t base) { return reinterpret_cast<uint8_t*>(&blocks_[base]); }
  const uint8_t* Meta(size_t base) const {
    return reinterpret_cast<const uint8_t*>(&blocks_[base]);
  }
  uint8_t* Ages(size_t base) { return Meta(base) + kAgeOffset; }
  const uint8_t* Ages(size_t base) const { return Meta(base) + kAgeOffset; }
  Addr& Tag(size_t w) { return blocks_[w + kMetaWords]; }
  Addr Tag(size_t w) const { return blocks_[w + kMetaWords]; }
  Cycles& ReadyAt(size_t w) { return blocks_[w + kMetaWords + config_.ways]; }
  Cycles ReadyAt(size_t w) const { return blocks_[w + kMetaWords + config_.ways]; }
  Cycles& PendingAt(size_t w) { return blocks_[w + kMetaWords + 2 * config_.ways]; }
  Cycles PendingAt(size_t w) const { return blocks_[w + kMetaWords + 2 * config_.ways]; }

  // The one tag scan: returns the block-coordinate way handle holding `line`
  // (a CacheLineBase value) among `set`'s valid ways, or kNoWay. A line sits
  // in at most one valid way (Insert refreshes a present line in place), so
  // the memo of the last way found, checked first, cannot disagree with the
  // scan: it is used only while that way is valid and still holds the line.
  // The scan is the fingerprint match described atop this file; Debug
  // builds check it against FindScalar.
  size_t Find(size_t set, Addr line) const {
    if (memo_line_ == line && (valid_mask_[set] & Bit(set, memo_way_)) != 0 &&
        TagMatches(Tag(memo_way_), line)) {
      return memo_way_;
    }
    const uint32_t valid = valid_mask_[set];
    if (valid == 0) {
      return kNoWay;  // an empty set's block is not touched at all
    }
    const size_t base = set * stride_;
    size_t w = kNoWay;
    for (uint32_t hits = MatchLanes(Meta(base), Fingerprint(line), config_.ways) & valid;
         hits != 0; hits &= hits - 1) {
      const size_t c = base + static_cast<uint32_t>(std::countr_zero(hits));
      if (TagMatches(Tag(c), line)) {
        w = c;
        break;
      }
    }
    PMEMSIM_DCHECK(w == FindScalar(set, line));
    if (w != kNoWay) {
      memo_line_ = line;
      memo_way_ = w;
    }
    return w;
  }
  // The bit walk over the valid ways, one TagMatches each; no memo and no
  // fingerprint.
  size_t FindScalar(size_t set, Addr line) const {
    const size_t base = set * stride_;
    for (uint32_t m = valid_mask_[set]; m != 0; m &= m - 1) {
      const size_t w = base + static_cast<uint32_t>(std::countr_zero(m));
      if (TagMatches(Tag(w), line)) {
        return w;
      }
    }
    return kNoWay;
  }
  uint32_t Bit(size_t set, size_t w) const { return 1u << (w - set * stride_); }
  // True iff way `w`'s scheduled invalidation has taken effect by `now`: the
  // demand path then treats the way as invalid.
  bool InvalidationDue(size_t set, size_t w, Cycles now) const {
    return (pending_mask_[set] & Bit(set, w)) != 0 && now >= PendingAt(w);
  }
  // The mask bit is the truth for pending/ready state; the block words are
  // only meaningful while their bit is set, so clearing is a bit operation.
  void ClearPending(size_t set, size_t w) { pending_mask_[set] &= ~Bit(set, w); }
  void ClearValid(size_t set, size_t w) {
    Tag(w) &= ~kValid;
    valid_mask_[set] &= ~Bit(set, w);
  }
  // Makes `way` of the set at `base` the most recent (TouchAges).
  void Touch(size_t base, uint32_t way) { TouchAges(Ages(base), way, config_.ways); }
  // The way of the set at `base` whose age is ways - 1: the least recently
  // touched one (OldestLane).
  uint32_t OldestWay(size_t base) const { return OldestLane(Ages(base), config_.ways); }

  struct Aligned64Delete {
    void operator()(uint64_t* p) const { ::operator delete[](p, std::align_val_t{64}); }
  };

  CacheLevelConfig config_;
  size_t sets_;
  size_t stride_;         // 8 + 3 * ways words rounded up to whole 64 B lines
  uint32_t fp_shift_;     // Fingerprint's shift: 6 + floor(log2(sets_))
  uint64_t set_mask_;     // sets_ - 1 when sets_ is a power of two, else 0
  uint64_t mod_mul_;      // ceil(2^64 / sets_) when set_mask_ == 0, else 0
  uint32_t ways_mask_;    // low config_.ways bits set
  std::unique_ptr<uint64_t[], Aligned64Delete> blocks_;  // set-contiguous
  std::vector<uint32_t> valid_mask_;    // per set: bit i = way i valid
  std::vector<uint32_t> ready_mask_;    // per set: bit i = way i has a
                                        // nonzero fill-ready time
  std::vector<uint32_t> pending_mask_;  // per set: bit i = way i has a
                                        // scheduled invalidation
  // Find's memo: the last line it found and its way. The initial line has
  // its low bits set, so it equals no CacheLineBase value.
  mutable Addr memo_line_ = ~Addr{0};
  mutable size_t memo_way_ = 0;
};

// Inline definitions for the three members on the per-access hot path
// (lookup, touch, fill). They are called several times per simulated load —
// once per level — from other translation units; defining them here lets
// those call sites fold the set-index math and mask loads together instead
// of paying an opaque cross-TU call per level.

inline bool SetAssocCache::Access(Addr line_addr, Cycles now, bool mark_dirty,
                                  bool* was_prefetched, Cycles* available_at) {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  size_t w = Find(set, line);
  if (w != kNoWay && InvalidationDue(set, w, now)) {
    ClearValid(set, w);  // the scheduled invalidation has taken effect
    w = kNoWay;
  }
  if (w == kNoWay) {
    if (was_prefetched != nullptr) {
      *was_prefetched = false;
    }
    return false;
  }
  const size_t base = set * stride_;
  const uint32_t bit = 1u << (w - base);
  Touch(base, static_cast<uint32_t>(w - base));
  if (mark_dirty) {
    Tag(w) |= kDirty;
    // A new store supersedes any scheduled clwb invalidation.
    pending_mask_[set] &= ~bit;
  }
  if (was_prefetched != nullptr) {
    *was_prefetched = (Tag(w) & kPrefetched) != 0;
  }
  if (available_at != nullptr) {
    *available_at = (ready_mask_[set] & bit) != 0 && ReadyAt(w) > now ? ReadyAt(w) : now;
  }
  Tag(w) &= ~kPrefetched;
  ready_mask_[set] &= ~bit;  // data is (or becomes) demand-visible now
  return true;
}

inline SetAssocCache::Located SetAssocCache::Locate(Addr line_addr, Cycles now) const {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  const size_t w = Find(set, line);
  return {w, w != kNoWay && !InvalidationDue(set, w, now)};
}

inline EvictedLine SetAssocCache::Insert(Located at, Addr line_addr, Cycles now, bool dirty,
                                         bool prefetched, Cycles ready_at) {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  const size_t base = set * stride_;
  PMEMSIM_DCHECK(at.way == Find(set, line));

  // Already present (even with its invalidation due): refresh in place.
  if (const size_t w = at.way; w != kNoWay) {
    Touch(base, static_cast<uint32_t>(w - base));
    if (dirty) {
      Tag(w) |= kDirty;
    }
    if (!prefetched) {
      Tag(w) &= ~kPrefetched;
    }
    ClearPending(set, w);
    return {};
  }

  // Pick the first invalid-or-expired way in way order (expired pending
  // invalidations count as invalid and are dropped, not evicted), else the
  // LRU way.
  uint32_t free = ~valid_mask_[set] & ways_mask_;
  for (uint32_t m = pending_mask_[set] & valid_mask_[set]; m != 0; m &= m - 1) {
    const uint32_t i = static_cast<uint32_t>(std::countr_zero(m));
    if (now >= PendingAt(base + i)) {
      free |= 1u << i;
    }
  }
  // A free way's block words are stale (or were never written), so only the
  // all-ways-valid LRU branch reads the line it evicts.
  if (valid_mask_[set] == 0) {
    // Every way is free: start the ages over from the identity (lanes past
    // `ways` then hold ages no touch moves and no victim pick matches).
    static constexpr uint8_t kIdentity[32] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                                              11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                                              22, 23, 24, 25, 26, 27, 28, 29, 30, 31};
    std::memcpy(Ages(base), kIdentity, sizeof(kIdentity));
  }
  size_t victim;
  EvictedLine evicted;
  if (free != 0) {
    victim = base + static_cast<uint32_t>(std::countr_zero(free));
  } else {
    victim = base + OldestWay(base);
    evicted = {Tag(victim) & kTagMask, true, (Tag(victim) & kDirty) != 0};
  }
  const uint32_t way = static_cast<uint32_t>(victim - base);
  const uint32_t bit = 1u << way;
  Meta(base)[way] = Fingerprint(line);
  Tag(victim) = line | kValid | (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0);
  valid_mask_[set] |= bit;
  pending_mask_[set] &= ~bit;
  if (ready_at != 0) {
    ReadyAt(victim) = ready_at;
    ready_mask_[set] |= bit;
  } else {
    ready_mask_[set] &= ~bit;
  }
  Touch(base, way);
  return evicted;
}

}  // namespace pmemsim

#endif  // SRC_CACHE_CACHE_H_
