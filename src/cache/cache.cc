#include "src/cache/cache.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include <bit>

#include "src/common/check.h"

namespace pmemsim {

namespace {

// Ask the kernel to back a large long-lived array with huge pages. The block
// array of a realistically sized L3 is tens of megabytes probed at random
// set indices: under 4 KB pages every probe is also a dTLB miss, and x86
// drops software prefetches whose translation misses — which defeats the
// PrefetchSet overlap scheme entirely. 2 MB pages make the whole array a
// handful of dTLB entries. Purely a host-side hint; harmless where
// unsupported.
void AdviseHugePages(void* p, size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr uintptr_t kHuge = 2u << 20;
  const uintptr_t start = (reinterpret_cast<uintptr_t>(p) + kHuge - 1) & ~(kHuge - 1);
  const uintptr_t end = (reinterpret_cast<uintptr_t>(p) + bytes) & ~(kHuge - 1);
  if (end > start) {
    (void)madvise(reinterpret_cast<void*>(start), end - start, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

SetAssocCache::SetAssocCache(const CacheLevelConfig& config) : config_(config) {
  PMEMSIM_CHECK(config.ways > 0);
  PMEMSIM_CHECK(config.ways <= 32);  // valid/ready/pending masks: one bit per way
  PMEMSIM_CHECK(config.size_bytes >= kCacheLineSize * config.ways);
  sets_ = static_cast<size_t>(config.size_bytes / (kCacheLineSize * config.ways));
  PMEMSIM_CHECK(sets_ > 0);
  set_mask_ = (sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0;
  if (set_mask_ != 0) {
    mod_mul_ = 0;
  } else {
    // ceil(2^64 / sets_): sets_ does not divide 2^64 here (not a power of
    // two), so floor((2^64 - 1) / sets_) + 1 is the ceiling. The multiply-
    // shift modulo in SetIndex is exact while the line number stays below
    // 2^64/sets_ - sets_; line numbers are bounded by the DRAM address space
    // top (~2^47 / 64 = 2^41), so cap the non-pow2 set count well under
    // 2^64 / 2^41 = 2^23 to keep a wide safety margin.
    PMEMSIM_CHECK(sets_ < (size_t{1} << 20));
    mod_mul_ = ~uint64_t{0} / sets_ + 1;
  }
  // The meta line, then the tag, ready_at and pending_at words; whole 64 B
  // lines per set.
  stride_ = (kMetaWords + 3 * config.ways + 7) & ~size_t{7};
  fp_shift_ = 6 + static_cast<uint32_t>(std::bit_width(sets_) - 1);
  ways_mask_ = config.ways == 32 ? ~0u : (1u << config.ways) - 1u;
  const size_t block_bytes = sets_ * stride_ * sizeof(uint64_t);
  blocks_.reset(static_cast<uint64_t*>(::operator new[](block_bytes, std::align_val_t{64})));
  AdviseHugePages(blocks_.get(), block_bytes);
  // Left uninitialized: the masks below gate every read (see Meta()).
  valid_mask_.assign(sets_, 0);
  ready_mask_.assign(sets_, 0);
  pending_mask_.assign(sets_, 0);
}

SetAssocCache::InvalidateResult SetAssocCache::Invalidate(Addr line_addr) {
  // Invalidation is unconditional: a line whose scheduled invalidation is
  // not yet due (or is due but not yet applied) is found all the same.
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  const size_t w = Find(set, line);
  if (w == kNoWay) {
    return {};
  }
  const InvalidateResult r{true, (Tag(w) & kDirty) != 0};
  Tag(w) &= ~kDirty;
  ClearValid(set, w);
  ClearPending(set, w);
  return r;
}

SetAssocCache::InvalidateResult SetAssocCache::WriteBack(Addr line_addr, Cycles invalidate_at,
                                                         bool retain) {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  const size_t w = Find(set, line);
  if (w == kNoWay) {
    return {};
  }
  const InvalidateResult r{true, (Tag(w) & kDirty) != 0};
  Tag(w) &= ~kDirty;
  if (!retain) {
    if (invalidate_at != 0) {
      PendingAt(w) = invalidate_at;
      pending_mask_[set] |= Bit(set, w);
    } else {
      ClearPending(set, w);
    }
  }
  return r;
}

void SetAssocCache::ApplyPendingInvalidate(Addr line_addr) {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  const size_t w = Find(set, line);
  if (w != kNoWay && (pending_mask_[set] & Bit(set, w)) != 0) {
    Tag(w) &= ~kDirty;
    ClearValid(set, w);
    ClearPending(set, w);
  }
}

void SetAssocCache::Clear() {
  valid_mask_.assign(valid_mask_.size(), 0);
  ready_mask_.assign(ready_mask_.size(), 0);
  pending_mask_.assign(pending_mask_.size(), 0);
}

}  // namespace pmemsim
