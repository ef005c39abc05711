#include "src/datastores/cceh.h"

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/persist/barrier.h"

namespace pmemsim {

namespace {
constexpr Cycles kHashComputeCost = 15;
}  // namespace

Cceh::Cceh(System* system, ThreadContext& ctx, uint32_t initial_depth, MemoryKind kind)
    : system_(system), kind_(kind), global_depth_(initial_depth) {
  PMEMSIM_CHECK(system != nullptr);
  PMEMSIM_CHECK(initial_depth >= 1 && initial_depth <= 24);

  const uint64_t dir_entries = 1ull << global_depth_;
  const PmRegion dir = kind_ == MemoryKind::kOptane
                           ? system_->AllocatePm(dir_entries * 8, kCacheLineSize)
                           : system_->AllocateDram(dir_entries * 8, kCacheLineSize);
  directory_ = dir.base;
  for (uint64_t i = 0; i < dir_entries; ++i) {
    const PmRegion seg = AllocateSegment();
    InitSegment(ctx, seg.base, global_depth_, i);
    ctx.Store64(directory_ + i * 8, seg.base);
  }
  Persist(ctx, directory_, dir_entries * 8);
}

uint64_t Cceh::HashOf(uint64_t key) { return Mix64(key); }

uint64_t Cceh::DirIndex(uint64_t hash) const {
  return global_depth_ == 0 ? 0 : hash >> (64 - global_depth_);
}

PmRegion Cceh::AllocateSegment() {
  ++segment_count_;
  return kind_ == MemoryKind::kOptane ? system_->AllocatePm(kSegmentSize, kXPLineSize)
                                      : system_->AllocateDram(kSegmentSize, kXPLineSize);
}

void Cceh::InitSegment(ThreadContext& ctx, Addr segment, uint64_t local_depth,
                       uint64_t pattern) {
  ctx.Store64(segment, local_depth);
  ctx.Store64(segment + 8, pattern);
  Persist(ctx, segment, 16);
}

bool Cceh::Insert(ThreadContext& ctx, uint64_t key, uint64_t value) {
  PMEMSIM_CHECK(key != kInvalidKey);
  ctx.AddCompute(kHashComputeCost);
  const uint64_t hash = HashOf(key);

  for (int attempt = 0; attempt < 64; ++attempt) {
    // Phase 1: directory walk (hot in the CPU caches).
    Cycles t0 = ctx.clock();
    const Addr segment = ctx.Load64(directory_ + DirIndex(hash) * 8);
    const Cycles t1 = ctx.clock();
    breakdown_.directory += t1 - t0;

    // Phase 2: segment access — the expensive random media read. The header
    // (local depth / pattern check) and the probe bucket line are independent
    // once the segment address is known; the out-of-order core issues both
    // together, so the exposed stall is ~one media round trip, attributed (as
    // in the paper's profile) to the segment-metadata access.
    const uint64_t bucket = BucketIndex(hash);
    const Addr first_bucket = SegmentBucketAddr(segment, bucket);
    const Addr seg_loads[2] = {segment, first_bucket};
    ctx.LoadMulti(seg_loads, 2);
    const Cycles t2 = ctx.clock();
    breakdown_.segment_meta += t2 - t1;

    // Phase 3: bucket probe (linear probing over adjacent buckets exhibits
    // the spatial locality the paper notes: later lines hit the read buffer).
    // Two passes over the probe window: the key may already exist past the
    // first empty slot (splits punch holes), so matches take priority.
    Addr target_slot = 0;
    bool update = false;
    for (uint32_t probe = 0; probe < kLinearProbeBuckets && !update; ++probe) {
      const Addr bucket_addr =
          SegmentBucketAddr(segment, (bucket + probe) % kBucketsPerSegment);
      for (uint64_t slot = 0; slot < kSlotsPerBucket; ++slot) {
        const Addr slot_addr = bucket_addr + slot * kSlotSize;
        const uint64_t slot_key = ctx.Load64(slot_addr);
        if (slot_key == key) {
          target_slot = slot_addr;
          update = true;
          break;
        }
        if (slot_key == kInvalidKey && target_slot == 0) {
          target_slot = slot_addr;  // first free slot, kept unless a match shows
        }
      }
    }
    if (target_slot != 0) {
      const Cycles t3 = ctx.clock();
      breakdown_.bucket_probe += t3 - t2;

      // Phase 4: commit. Value first, then the 8-byte key write commits the
      // slot; one cacheline flush + fence persists the bucket line.
      ctx.Store64(target_slot + 8, value);
      ctx.Store64(target_slot, key);
      if (!skip_persist_for_test_) {
        ctx.Clwb(target_slot);
        ctx.Sfence();
      }
      breakdown_.persist += ctx.clock() - t3;
      ++breakdown_.inserts;
      if (!update) {
        ++size_;
      }
      return true;
    }
    breakdown_.bucket_probe += ctx.clock() - t2;

    // Phase 5: no slot in the probe window — split and retry.
    t0 = ctx.clock();
    Split(ctx, segment, hash);
    breakdown_.split += ctx.clock() - t0;
  }
  return false;
}

bool Cceh::Get(ThreadContext& ctx, uint64_t key, uint64_t* value_out) {
  PMEMSIM_CHECK(key != kInvalidKey);
  ctx.AddCompute(kHashComputeCost);
  const uint64_t hash = HashOf(key);
  const Addr segment = ctx.Load64(directory_ + DirIndex(hash) * 8);
  const uint64_t bucket = BucketIndex(hash);
  const Addr seg_loads[2] = {segment, SegmentBucketAddr(segment, bucket)};
  ctx.LoadMulti(seg_loads, 2);  // header pattern check + probe line, overlapped
  for (uint32_t probe = 0; probe < kLinearProbeBuckets; ++probe) {
    const Addr bucket_addr = SegmentBucketAddr(segment, (bucket + probe) % kBucketsPerSegment);
    for (uint64_t slot = 0; slot < kSlotsPerBucket; ++slot) {
      const Addr slot_addr = bucket_addr + slot * kSlotSize;
      if (ctx.Load64(slot_addr) == key) {
        if (value_out != nullptr) {
          *value_out = ctx.Load64(slot_addr + 8);
        }
        return true;
      }
    }
  }
  return false;
}

bool Cceh::Erase(ThreadContext& ctx, uint64_t key) {
  PMEMSIM_CHECK(key != kInvalidKey);
  ctx.AddCompute(kHashComputeCost);
  const uint64_t hash = HashOf(key);
  const Addr segment = ctx.Load64(directory_ + DirIndex(hash) * 8);
  const uint64_t bucket = BucketIndex(hash);
  const Addr seg_loads[2] = {segment, SegmentBucketAddr(segment, bucket)};
  ctx.LoadMulti(seg_loads, 2);
  for (uint32_t probe = 0; probe < kLinearProbeBuckets; ++probe) {
    const Addr bucket_addr = SegmentBucketAddr(segment, (bucket + probe) % kBucketsPerSegment);
    for (uint64_t slot = 0; slot < kSlotsPerBucket; ++slot) {
      const Addr slot_addr = bucket_addr + slot * kSlotSize;
      if (ctx.Load64(slot_addr) == key) {
        // The 8-byte key write is the atomic commit point, as for inserts.
        PersistentStore64(ctx, slot_addr, kInvalidKey, PersistMode::kClwbSfence);
        --size_;
        return true;
      }
    }
  }
  return false;
}

void Cceh::PrefetchProbePath(ThreadContext& ctx, uint64_t key) {
  ctx.AddCompute(kHashComputeCost);
  const uint64_t hash = HashOf(key);
  const Addr segment = ctx.Load64(directory_ + DirIndex(hash) * 8);
  // Header and the first half of the linear-probe window are independent once
  // the directory entry is known: issue them with memory-level parallelism
  // (the paper's helper visits "directory entries, segments, and buckets").
  const uint64_t bucket = BucketIndex(hash);
  Addr addrs[1 + kLinearProbeBuckets];
  addrs[0] = segment;
  for (uint32_t p = 0; p < kLinearProbeBuckets; ++p) {
    addrs[1 + p] = SegmentBucketAddr(segment, (bucket + p) % kBucketsPerSegment);
  }
  ctx.LoadMulti(addrs, 1 + kLinearProbeBuckets);
}

void Cceh::Split(ThreadContext& ctx, Addr segment, uint64_t hash) {
  ++breakdown_.splits;
  const uint64_t local_depth = ctx.Load64(segment);
  const uint64_t pattern = ctx.Load64(segment + 8);

  if (local_depth == global_depth_) {
    DoubleDirectory(ctx);
  }
  PMEMSIM_CHECK(local_depth < global_depth_);

  // Allocate and initialize the sibling segment covering the 1-branch.
  const PmRegion new_seg = AllocateSegment();
  InitSegment(ctx, new_seg.base, local_depth + 1, (pattern << 1) | 1);

  // Redistribute: COPY keys whose (local_depth+1)-th top bit is set into the
  // sibling — the old slots stay intact until after publication, so a crash
  // anywhere before the directory update still finds every key through the
  // old segment (CCEH's lazy-deletion split protocol).
  const uint64_t shift = 64 - (local_depth + 1);
  for (uint64_t b = 0; b < kBucketsPerSegment; ++b) {
    const Addr old_bucket = SegmentBucketAddr(segment, b);
    const Addr new_bucket = SegmentBucketAddr(new_seg.base, b);
    bool new_dirty = false;
    for (uint64_t slot = 0; slot < kSlotsPerBucket; ++slot) {
      const Addr slot_addr = old_bucket + slot * kSlotSize;
      const uint64_t slot_key = ctx.Load64(slot_addr);
      if (slot_key == kInvalidKey) {
        continue;
      }
      const uint64_t key_hash = HashOf(slot_key);
      if (((key_hash >> shift) & 1) == 0) {
        continue;
      }
      const uint64_t slot_value = ctx.Load64(slot_addr + 8);
      ctx.Store64(new_bucket + slot * kSlotSize + 8, slot_value);
      ctx.Store64(new_bucket + slot * kSlotSize, slot_key);
      new_dirty = true;
    }
    if (new_dirty) {
      ctx.Clwb(new_bucket);
    }
  }
  ctx.Sfence();  // new segment content durable before publication

  // Bump the surviving segment's depth and pattern.
  ctx.Store64(segment, local_depth + 1);
  ctx.Store64(segment + 8, pattern << 1);
  Persist(ctx, segment, 16);

  // Publish: redirect the 1-branch directory entries to the new segment.
  const uint64_t span = 1ull << (global_depth_ - local_depth);
  const uint64_t first = pattern << (global_depth_ - local_depth);
  for (uint64_t i = first + span / 2; i < first + span; ++i) {
    StoreAndFlush64(ctx, directory_ + i * 8, new_seg.base, PersistMode::kClwbSfence);
  }
  PersistFence(ctx, PersistMode::kClwbSfence);

  // Cleanup: now that the directory routes 1-branch hashes to the sibling,
  // lazily invalidate the moved copies. A crash mid-cleanup only leaves
  // unreachable duplicates behind, never a lost key.
  for (uint64_t b = 0; b < kBucketsPerSegment; ++b) {
    const Addr old_bucket = SegmentBucketAddr(segment, b);
    bool old_dirty = false;
    for (uint64_t slot = 0; slot < kSlotsPerBucket; ++slot) {
      const Addr slot_addr = old_bucket + slot * kSlotSize;
      const uint64_t slot_key = ctx.Load64(slot_addr);
      if (slot_key == kInvalidKey) {
        continue;
      }
      if (((HashOf(slot_key) >> shift) & 1) == 0) {
        continue;
      }
      ctx.Store64(slot_addr, kInvalidKey);
      old_dirty = true;
    }
    if (old_dirty) {
      ctx.Clwb(old_bucket);
    }
  }
  ctx.Sfence();

  (void)hash;
}

void Cceh::DoubleDirectory(ThreadContext& ctx) {
  const uint64_t old_entries = 1ull << global_depth_;
  const uint64_t new_entries = old_entries * 2;
  const PmRegion dir = kind_ == MemoryKind::kOptane
                           ? system_->AllocatePm(new_entries * 8, kCacheLineSize)
                           : system_->AllocateDram(new_entries * 8, kCacheLineSize);
  for (uint64_t i = 0; i < old_entries; ++i) {
    const uint64_t entry = ctx.Load64(directory_ + i * 8);
    ctx.Store64(dir.base + (2 * i) * 8, entry);
    ctx.Store64(dir.base + (2 * i + 1) * 8, entry);
  }
  Persist(ctx, dir.base, new_entries * 8);
  directory_ = dir.base;
  ++global_depth_;
}

}  // namespace pmemsim
