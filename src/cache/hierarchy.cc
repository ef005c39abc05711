#include "src/cache/hierarchy.h"

#include "src/common/check.h"

namespace pmemsim {

CacheHierarchy::CacheHierarchy(const CacheConfig& config, SetAssocCache* shared_l3,
                               MemoryController* mc, Counters* counters, NodeId node,
                               uint64_t rng_seed)
    : config_(config),
      l1_(config.l1),
      l2_(config.l2),
      l3_(shared_l3),
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
  PrefetchEngine::DemandInfo info;
  info.line = line;
  info.now = now;

  bool ft = false;
  Cycles avail = now;
  if (l1_.Access(line, now, is_store, &ft, &avail)) {
    ++counters_->l1_hits;
    info.l1_hit = true;
    info.first_touch_prefetched = ft;
    out->complete_at = avail + l1_.hit_latency();
    out->hit_level = 1;
    if (train) {
      TrainEngine(info);
    }
    return;
  }

  // L1 missed: the rest of the walk may touch the L3 set block, the DIMM
  // translation cache, and the on-DIMM buffer indexes — all cold in the host
  // caches for the big-working-set shapes. Start those fetches now so they
  // proceed in parallel with the L2/L3 probes (one round of concurrent host
  // misses instead of a serial dependence chain). No simulated effect.
  l3_->PrefetchSet(line);
  mc_->PrefetchRead(line);

  if (l2_.Access(line, now, /*mark_dirty=*/false, &ft, &avail)) {
    ++counters_->l2_hits;
    info.l2_hit = true;
    info.first_touch_prefetched = ft;
    out->complete_at = avail + l2_.hit_latency();
    out->hit_level = 2;
    FillInto(l1_, 1, line, now, is_store, /*prefetched=*/false);
    if (train) {
      TrainEngine(info);
    }
    return;
  }

  if (l3_->Access(line, now, /*mark_dirty=*/false, &ft, &avail)) {
    ++counters_->l3_hits;
    info.first_touch_prefetched = ft;
    out->complete_at = avail + l3_->hit_latency();
    out->hit_level = 3;
    FillInto(l2_, 2, line, now, /*dirty=*/false, /*prefetched=*/false);
    FillInto(l1_, 1, line, now, is_store, /*prefetched=*/false);
    if (train) {
      TrainEngine(info);
    }
    return;
  }

  // Full miss: fetch from memory. Stores are RFOs and then dirty the line.
  // The iMC and DIMM write their latency shares straight into `out`.
  ++counters_->cache_misses;
  mc_->Read(line, now, node_, ordered, out);
  out->hit_level = 0;
  FillInto(*l3_, 3, line, now, /*dirty=*/false, /*prefetched=*/false);
  FillInto(l2_, 2, line, now, /*dirty=*/false, /*prefetched=*/false);
  FillInto(l1_, 1, line, now, is_store, /*prefetched=*/false);
  if (train) {
    TrainEngine(info);
  }
}

void CacheHierarchy::FillInto(SetAssocCache& level, int level_idx, Addr line, Cycles now,
                              bool dirty, bool prefetched, Cycles ready_at) {
  const EvictedLine evicted = level.Insert(line, now, dirty, prefetched, ready_at);
  if (!evicted.valid || !evicted.dirty) {
    return;
  }
  // Cascade dirty victims toward memory.
  if (level_idx == 1) {
    if (!l2_.Access(evicted.line, now, /*mark_dirty=*/true)) {
      FillInto(l2_, 2, evicted.line, now, /*dirty=*/true, /*prefetched=*/false);
    }
  } else if (level_idx == 2) {
    if (!l3_->Access(evicted.line, now, /*mark_dirty=*/true)) {
      FillInto(*l3_, 3, evicted.line, now, /*dirty=*/true, /*prefetched=*/false);
    }
  } else {
    // Dirty L3 eviction: a write-back enters the persist path (ADR on PM).
    mc_->Write(evicted.line, now, node_);
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
  dirty |= l1_.WriteBack(line, invalidate_at, retain).was_dirty;
  dirty |= l2_.WriteBack(line, invalidate_at, retain).was_dirty;
  dirty |= l3_->WriteBack(line, invalidate_at, retain).was_dirty;
  if (dirty) {
    const McWriteResult w = mc_->Write(line, now, node_);
    result.wrote = true;
    result.accepted_at = w.accepted_at;
  }
  return result;
}

void CacheHierarchy::InvalidateAll(Addr addr) {
  const Addr line = CacheLineBase(addr);
  l1_.Invalidate(line);
  l2_.Invalidate(line);
  l3_->Invalidate(line);
}

void CacheHierarchy::ForcePendingInvalidate(Addr addr) {
  const Addr line = CacheLineBase(addr);
  l1_.ApplyPendingInvalidate(line);
  l2_.ApplyPendingInvalidate(line);
  l3_->ApplyPendingInvalidate(line);
}

bool CacheHierarchy::ProbeAny(Addr addr, Cycles now) const {
  const Addr line = CacheLineBase(addr);
  return l1_.Probe(line, now) || l2_.Probe(line, now) || l3_->Probe(line, now);
}

void CacheHierarchy::PrefetchFill(Addr line_addr, Cycles now, bool into_l1) {
  if (in_prefetch_fill_) {
    return;  // prefetch fills never cascade into more prefetches
  }
  const Addr line = CacheLineBase(line_addr);
  if (ProbeAny(line, now)) {
    return;
  }
  in_prefetch_fill_ = true;
  ++counters_->prefetch_requests;
  AccessRecord fill;
  mc_->Read(line, now, node_, /*ordered=*/false, &fill);
  FillInto(*l3_, 3, line, now, /*dirty=*/false, /*prefetched=*/true, fill.complete_at);
  FillInto(l2_, 2, line, now, /*dirty=*/false, /*prefetched=*/true, fill.complete_at);
  if (into_l1) {
    FillInto(l1_, 1, line, now, /*dirty=*/false, /*prefetched=*/true, fill.complete_at);
  }
  in_prefetch_fill_ = false;
}

void CacheHierarchy::ClearPrivate() {
  l1_.Clear();
  l2_.Clear();
  engine_.Reset();
}

}  // namespace pmemsim
