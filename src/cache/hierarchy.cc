#include "src/cache/hierarchy.h"

#include "src/common/check.h"

namespace pmemsim {

namespace {

// Each level's hit counter, indexed like CacheHierarchy::levels_.
constexpr uint64_t Counters::*kHitCounters[] = {&Counters::l1_hits, &Counters::l2_hits,
                                                &Counters::l3_hits};

// A demand walk's lookups: every level it fills missed its Access.
constexpr std::array kMissedEverywhere{SetAssocCache::kAbsent, SetAssocCache::kAbsent,
                                       SetAssocCache::kAbsent};

}  // namespace

CacheHierarchy::CacheHierarchy(const CacheConfig& config, SetAssocCache* shared_l3,
                               MemoryController* mc, Counters* counters, NodeId node,
                               uint64_t rng_seed)
    : config_(config),
      l1_(config.l1),
      l2_(config.l2),
      l3_(shared_l3),
      levels_{&l1_, &l2_, shared_l3},
      mc_(mc),
      counters_(counters),
      node_(node),
      engine_(config, this, rng_seed) {
  PMEMSIM_CHECK(shared_l3 != nullptr);
  PMEMSIM_CHECK(mc != nullptr);
  PMEMSIM_CHECK(counters != nullptr);
}

void CacheHierarchy::Load(Addr addr, Cycles now, bool ordered, bool train, AccessRecord* out) {
  ++counters_->demand_loads;
  AccessInternal(addr, now, /*is_store=*/false, ordered, train, out);
}

void CacheHierarchy::Store(Addr addr, Cycles now, AccessRecord* out) {
  ++counters_->demand_stores;
  AccessInternal(addr, now, /*is_store=*/true, /*ordered=*/false, /*train=*/true, out);
}

void CacheHierarchy::AccessInternal(Addr addr, Cycles now, bool is_store, bool ordered,
                                    bool train, AccessRecord* out) {
  const Addr line = CacheLineBase(addr);
  bool first_touch_prefetched = false;
  Cycles avail = now;
  // Walk down to the first level holding the line (k == kLevels: none). Only
  // the L1 touch of a store marks the line dirty.
  int k = 0;
  while (k < kLevels &&
         !levels_[k]->Access(line, now, is_store && k == 0, &first_touch_prefetched, &avail)) {
    if (k == 0) {
      // L1 missed: the rest of the walk may touch the L3 set block, the DIMM
      // translation cache, and the on-DIMM buffer indexes — all cold in the
      // host caches for the big-working-set shapes. Start those fetches now
      // so they proceed in parallel with the L2/L3 probes (one round of
      // concurrent host misses instead of a serial dependence chain). No
      // simulated effect.
      l3_->PrefetchSet(line);
      mc_->PrefetchRead(line);
    }
    ++k;
  }
  if (k < kLevels) {
    ++(counters_->*kHitCounters[k]);
    out->complete_at = avail + levels_[k]->hit_latency();
    out->hit_level = static_cast<uint8_t>(k + 1);
  } else {
    // Full miss: fetch from memory. Stores are RFOs and then dirty the line.
    // The iMC and DIMM write their latency shares straight into `out`.
    ++counters_->cache_misses;
    mc_->Read(line, now, node_, ordered, out);
    out->hit_level = 0;
  }
  FillAbove(k, 0, kMissedEverywhere, line, now, is_store, /*prefetched=*/false, /*ready_at=*/0);
  if (train) {
    TrainEngine({line, now, out->hit_level, first_touch_prefetched});
  }
}

void CacheHierarchy::FillAbove(int k, int top, const LevelLookups& at, Addr line, Cycles now,
                               bool store, bool prefetched, Cycles ready_at) {
  for (int j = k - 1; j >= top; --j) {
    FillInto(j, at[j], line, now, store && j == 0, prefetched, ready_at);
  }
}

void CacheHierarchy::FillInto(int k, SetAssocCache::Located at, Addr line, Cycles now,
                              bool dirty, bool prefetched, Cycles ready_at) {
  const EvictedLine evicted = levels_[k]->Insert(at, line, now, dirty, prefetched, ready_at);
  if (!evicted.valid || !evicted.dirty) {
    return;
  }
  if (k + 1 == kLevels) {
    // Dirty L3 eviction: a write-back enters the persist path (ADR on PM).
    mc_->Write(evicted.line, now, node_);
  } else if (!levels_[k + 1]->Access(evicted.line, now, /*mark_dirty=*/true)) {
    FillInto(k + 1, SetAssocCache::kAbsent, evicted.line, now, /*dirty=*/true,
             /*prefetched=*/false, /*ready_at=*/0);
  }
}

FlushResult CacheHierarchy::Flush(Addr addr, Cycles now, bool invalidate) {
  const Addr line = CacheLineBase(addr);
  FlushResult result;
  result.cost = 2;  // issue cost; draining is asynchronous

  // A line that is not retained is invalidated after the dispatch window.
  const bool retain = !invalidate && config_.clwb_retains_line;
  const Cycles invalidate_at = now + config_.clwb_dispatch_delay;
  bool dirty = false;
  for (SetAssocCache* level : levels_) {
    dirty |= level->WriteBack(line, invalidate_at, retain).was_dirty;
  }
  if (dirty) {
    const McWriteResult w = mc_->Write(line, now, node_);
    result.wrote = true;
    result.accepted_at = w.accepted_at;
  }
  return result;
}

void CacheHierarchy::InvalidateAll(Addr addr) {
  const Addr line = CacheLineBase(addr);
  for (SetAssocCache* level : levels_) {
    level->Invalidate(line);
  }
}

void CacheHierarchy::ForcePendingInvalidate(Addr addr) {
  const Addr line = CacheLineBase(addr);
  for (SetAssocCache* level : levels_) {
    level->ApplyPendingInvalidate(line);
  }
}

bool CacheHierarchy::ProbeAny(Addr addr, Cycles now) const {
  const Addr line = CacheLineBase(addr);
  for (const SetAssocCache* level : levels_) {
    if (level->Probe(line, now)) {
      return true;
    }
  }
  return false;
}

void CacheHierarchy::PrefetchFill(Addr line_addr, Cycles now, bool into_l1) {
  if (in_prefetch_fill_) {
    return;  // prefetch fills never cascade into more prefetches
  }
  const Addr line = CacheLineBase(line_addr);
  // One lookup per level serves both the presence check and the fill: a
  // present way whose invalidation is due is not live, but the fill still
  // refreshes it in place.
  LevelLookups at;
  for (int k = 0; k < kLevels; ++k) {
    at[k] = levels_[k]->Locate(line, now);
    if (at[k].live) {
      return;
    }
  }
  in_prefetch_fill_ = true;
  ++counters_->prefetch_requests;
  AccessRecord fill;
  mc_->Read(line, now, node_, /*ordered=*/false, &fill);
  FillAbove(kLevels, into_l1 ? 0 : 1, at, line, now, /*store=*/false, /*prefetched=*/true,
            fill.complete_at);
  in_prefetch_fill_ = false;
}

void CacheHierarchy::ClearPrivate() {
  l1_.Clear();
  l2_.Clear();
  engine_.Reset();
}

}  // namespace pmemsim
