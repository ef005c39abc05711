// Address Indirection Table (AIT) translation cache.
//
// Optane DIMMs translate DIMM-physical addresses to media addresses through an
// on-media AIT; a small on-controller cache holds hot translations. The paper
// (§3.6, following LENS/MICRO'20) attributes the sharp read-latency increase
// beyond ~16 MB working sets partly to this cache overflowing. We model it as
// an LRU cache of 4 KB translation entries with a fixed coverage.
//
// The LRU is an array of intrusive nodes (prev/next indices) addressed through
// a two-level radix over the page number — every Access is O(1) with no
// hashing and no per-entry heap traffic, and a miss recycles the evicted
// victim's node in place. A page-number radix beats a hash map here because
// an oversubscribed AIT (working set > coverage, the regime the paper's
// >16 MB cliff lives in) does an erase+insert pair on nearly every access:
// with a radix both are single slot stores, and the slots for a hot region
// pack densely into a few host cache lines.

#ifndef SRC_MEDIA_AIT_H_
#define SRC_MEDIA_AIT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/trace/counters.h"

namespace pmemsim {

class Ait {
 public:
  // `coverage_bytes` of media are translatable without a miss;
  // `miss_penalty` cycles are charged per miss. Entries cover 4 KB each.
  Ait(uint64_t coverage_bytes, Cycles miss_penalty, Counters* counters);

  // Translates the page containing `addr`. Returns the cycle cost (0 on hit).
  Cycles Access(Addr addr);

  // Host-side hint: warm the translation slot for `addr` ahead of the Access
  // a media request is about to make. No simulated effect.
  void Prefetch(Addr addr) const {
    const uint64_t pageno = addr / kPageSize;
    const uint64_t chunk = pageno >> kLeafBits;
    if (chunk < index_.size() && index_[chunk]) {
      __builtin_prefetch(&index_[chunk]->slots[pageno & (kLeafSize - 1)]);
    }
  }

  size_t capacity() const { return capacity_; }

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  // Radix leaf: node indices for 4096 consecutive pages (16 MB of media).
  static constexpr int kLeafBits = 12;
  static constexpr size_t kLeafSize = size_t{1} << kLeafBits;
  struct Leaf {
    std::array<uint32_t, kLeafSize> slots;  // kNil = untracked page
  };

  struct Node {
    Addr page = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  // Slot holding the node index for `page` (a PageBase value), or nullptr if
  // its leaf was never populated.
  const uint32_t* FindSlot(Addr page) const {
    const uint64_t pageno = page / kPageSize;
    const uint64_t chunk = pageno >> kLeafBits;
    if (chunk >= index_.size() || !index_[chunk]) {
      return nullptr;
    }
    return &index_[chunk]->slots[pageno & (kLeafSize - 1)];
  }
  uint32_t* EnsureSlot(Addr page);

  void Unlink(uint32_t i);
  void PushFront(uint32_t i);
  void Touch(Addr page);

  size_t capacity_;
  Cycles miss_penalty_;
  Counters* counters_;

  std::vector<Node> nodes_;  // grows to capacity_, then nodes recycle
  uint32_t head_ = kNil;     // most recent
  uint32_t tail_ = kNil;     // eviction victim
  std::vector<std::unique_ptr<Leaf>> index_;  // page number -> node index
};

}  // namespace pmemsim

#endif  // SRC_MEDIA_AIT_H_
