// On-DIMM read buffer (paper §3.1).
//
// Findings modeled here:
//  * capacity of 16 KB (G1) / 22 KB (G2), organized as 256 B XPLine entries;
//  * FIFO eviction: a working set one entry larger than capacity misses on
//    every access (the sharp RA jump in Fig. 2);
//  * exclusivity with the CPU caches: delivering a cacheline to the iMC
//    invalidates that cacheline's copy in the buffer, so re-reading a line
//    always costs a fresh 256 B media fetch — RA never drops below 1.
//
// The buffer is a ring of XPLine slots; each slot carries a 4-bit valid mask
// (one bit per cacheline). Victim selection is O(1) in both modes: slots
// vacated by a §3.3 read->write transition go on a free list consulted before
// the FIFO hand (so a live slot is never evicted while a freed one sits
// unused), and LRU mode keeps an intrusive recency list (prev/next slot
// indices) instead of scanning every slot for the oldest timestamp — the
// victim is always the exact least-recently-touched slot, identical to the
// scan it replaced.

#ifndef SRC_BUFFERS_READ_BUFFER_H_
#define SRC_BUFFERS_READ_BUFFER_H_

#include <cstdint>
#include <vector>

#include "src/common/config.h"
#include "src/common/flat_map.h"
#include "src/common/types.h"
#include "src/trace/counters.h"

namespace pmemsim {

class ReadBuffer {
 public:
  ReadBuffer(uint64_t capacity_bytes, Counters* counters, ReadBufferEviction eviction,
             bool exclusive);

  // True if the cacheline at `line_addr` can be served from the buffer.
  bool Probe(Addr line_addr) const;

  // Serves the cacheline: on hit, clears its valid bit (exclusive delivery)
  // and returns true. On miss returns false.
  bool ConsumeLine(Addr line_addr);

  // Installs (or refreshes) the XPLine containing `addr` with all four
  // cachelines valid, evicting a victim if no slot is free.
  void Fill(Addr addr);

  // Media-miss delivery: fills the XPLine and hands the requested cacheline
  // to the requester (clearing its valid bit under exclusivity) WITHOUT
  // touching the hit/miss counters — the miss was already counted by the
  // probe that led here, and the delivery is an artifact of the fill, not a
  // buffer hit.
  void FillForDelivery(Addr line_addr);

  // True if the XPLine containing `addr` occupies a slot (any valid bits).
  bool ContainsXPLine(Addr addr) const;

  // Removes the XPLine containing `addr` (used when a write transitions the
  // XPLine to the write buffer, paper §3.3). Returns true if it was present.
  // The vacated slot goes on the free list and is reused before any live
  // slot is evicted.
  bool Remove(Addr addr);

  void Clear();

  // Host-side hint: warm the index bucket a lookup of `addr` will probe.
  // No simulated effect.
  void PrefetchLookup(Addr addr) const { map_.Prefetch(XPLineBase(addr)); }

  size_t capacity_entries() const { return static_cast<size_t>(slots_.size()); }
  size_t occupied_entries() const { return map_.size(); }

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  // Fill() body; returns the slot the XPLine landed in so FillForDelivery can
  // clear the delivered line's valid bit without a second index lookup.
  uint32_t FillSlot(Addr addr);

  struct Slot {
    Addr xpline = 0;
    uint8_t valid_mask = 0;  // bit i = cacheline i valid
    bool in_use = false;
    // Intrusive LRU links (LRU mode only): slot indices, kNil-terminated.
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
  };

  size_t PickVictim();
  // Pops the oldest usable free slot, or kNil if none.
  uint32_t PopFree();
  void LruUnlink(uint32_t i);
  void LruPushFront(uint32_t i);

  Counters* counters_;
  ReadBufferEviction eviction_;
  bool exclusive_;
  std::vector<Slot> slots_;
  size_t next_fill_ = 0;  // FIFO cursor (virgin-slot fills keep it at 0)
  // Free slots in the order they became free: all slots at construction,
  // then whatever Remove vacates. Consumed from free_head_.
  std::vector<uint32_t> free_;
  size_t free_head_ = 0;
  uint32_t lru_head_ = kNil;  // most recently touched
  uint32_t lru_tail_ = kNil;  // eviction victim
  FlatMap<Addr, uint32_t> map_;  // XPLine base -> slot index
};

}  // namespace pmemsim

#endif  // SRC_BUFFERS_READ_BUFFER_H_
