#include "src/cpu/thread_context.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/trace/recorder.h"

namespace pmemsim {

namespace {

// The attribution stage of a cache hit at AccessRecord::hit_level 1..3;
// kCore for a miss (hit_level 0).
AttributionCollector::Stage CacheHitStage(uint8_t hit_level) {
  static constexpr AttributionCollector::Stage kStages[] = {
      AttributionCollector::kCore, AttributionCollector::kL1Hit, AttributionCollector::kL2Hit,
      AttributionCollector::kL3Hit};
  return kStages[hit_level];
}

}  // namespace

ThreadContext::ThreadContext(const PlatformConfig& config, BackingStore* backing,
                             MemoryController* mc, SetAssocCache* shared_l3, Counters* counters,
                             NodeId node, uint64_t rng_seed)
    : cpu_(config.cpu),
      eadr_(config.eadr_enabled),
      backing_(backing),
      mc_(mc),
      counters_(counters),
      node_(node),
      own_hierarchy_(config.cache, shared_l3, mc, counters, node, rng_seed),
      hier_(&own_hierarchy_) {
  PMEMSIM_CHECK(backing != nullptr);
  PMEMSIM_CHECK(mc != nullptr);
  outstanding_.Init(cpu_.store_buffer_depth);
}

ThreadContext::ThreadContext(const PlatformConfig& config, BackingStore* backing,
                             MemoryController* mc, Counters* counters, ThreadContext* sibling)
    : cpu_(config.cpu),
      eadr_(config.eadr_enabled),
      backing_(backing),
      mc_(mc),
      counters_(counters),
      node_(sibling->node_),
      own_hierarchy_(config.cache, &sibling->hierarchy().shared_l3(), mc, counters,
                     sibling->node_, 0),
      hier_(&sibling->hierarchy()) {
  PMEMSIM_CHECK(backing != nullptr);
  PMEMSIM_CHECK(mc != nullptr);
  clock_ = sibling->clock_;
  outstanding_.Init(cpu_.store_buffer_depth);
}

void ThreadContext::AdvanceTo(Cycles t) { clock_ = std::max(clock_, t); }

Cycles ThreadContext::ScaleCore(Cycles c) const {
  return smt_scale_ == 1.0 ? c : static_cast<Cycles>(static_cast<double>(c) * smt_scale_);
}

void ThreadContext::RecordLoad(Cycles end_to_end, const AccessRecord& r) {
  if (r.hit_level != 0) {
    attribution_->RecordStage(AttributionCollector::kLoad, end_to_end, CacheHitStage(r.hit_level),
                              end_to_end);
  } else {
    // Full miss: the memory side reported where the span went; the fields
    // sum exactly to end_to_end, so nothing lands in the core remainder.
    attribution_->RecordMiss(AttributionCollector::kLoad, end_to_end, r.mem);
  }
}

void ThreadContext::RecordPersistOp(AttributionCollector::Op op, Cycles t0, Cycles wpq_wait,
                                    Cycles accepted_at) {
  attribution_->RecordStage(op, clock_ - t0, AttributionCollector::kWpqWait, wpq_wait);
  // The acceptance delay itself is asynchronous — it surfaces at the next
  // fence — so it is tracked outside the conservation identity.
  if (accepted_at > t0) {
    attribution_->RecordAsyncAccept(accepted_at - t0);
  }
}

// Marked inline: it is on every timed load's path.
inline const AccessRecord& ThreadContext::TimeLoad(Addr addr, bool train) {
  // A timed load usually ends with backing_->ReadU64(addr), so start the host
  // fetch of that page first: it overlaps the whole simulated walk. No
  // simulated effect.
  backing_->PrefetchRead(addr);
  // Out-of-order early execution: an unordered load targeting a just-flushed
  // line can issue before the flush's invalidation retires and hit the cache.
  if (!loads_ordered_ && recent_flush_count_ != 0) {
    const Addr line = CacheLineBase(addr);
    for (uint32_t i = 0; i < recent_flush_count_; ++i) {
      if (recent_flushes_[i] == line && hier_->ProbeAny(line, /*now=*/0)) {
        clock_ += ScaleCore(hier_->l1().hit_latency());
        AccessRecord& early = *arena_.Alloc();
        early.hit_level = 1;
        return early;
      }
    }
  }
  AccessRecord& r = *arena_.Alloc();
  hier_->Load(addr, clock_, loads_ordered_, train, &r);
  Cycles latency = r.complete_at - clock_;
  if (r.hit_level >= 1) {
    latency = ScaleCore(latency);  // core-local: subject to SMT sharing
  }
  clock_ += latency;
  return r;
}

uint64_t ThreadContext::LoadInternal(Addr addr, bool train) {
  const Cycles t0 = clock_;
  const AccessRecord& r = TimeLoad(addr, train);
  if (attribution_ != nullptr) {
    RecordLoad(clock_ - t0, r);
  }
  return backing_->ReadU64(addr);
}

void ThreadContext::LoadMulti(const Addr* addrs, size_t count) {
  const Cycles start = clock_;
  Cycles latest = start;
  // The loads overlap, so only the slowest one is on the critical path.
  // Attribution records the group as that one load: its stages then sum to
  // the clock advance, as they do for every other operation.
  AccessRecord critical;
  for (size_t i = 0; i < count; ++i) {
    clock_ = start;
    const AccessRecord& r = TimeLoad(addrs[i], /*train=*/true);
    if (i == 0 || clock_ > latest) {
      latest = clock_;
      critical = r;
    }
  }
  clock_ = latest;
  if (attribution_ != nullptr && count != 0) {
    RecordLoad(latest - start, critical);
  }
  if (recorder_ != nullptr) {
    recorder_->RecordMulti(trace_tid_, addrs, count, clock_);
  }
}

uint64_t ThreadContext::Load64(Addr addr) {
  const uint64_t v = LoadInternal(addr, /*train=*/true);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kLoad64, addr, 0, clock_);
  }
  return v;
}

uint64_t ThreadContext::Load64NoPrefetch(Addr addr) {
  const uint64_t v = LoadInternal(addr, /*train=*/false);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kLoadNoPrefetch, addr, 0, clock_);
  }
  return v;
}

void ThreadContext::LoadLine(Addr addr) {
  (void)LoadInternal(addr, /*train=*/true);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kLoadLine, addr, 0, clock_);
  }
}

void ThreadContext::RecordCompute(Cycles c) {
  recorder_->Record(trace_tid_, TraceOp::kCompute, 0, c, clock_);
}

void ThreadContext::TraceMarker(uint32_t id) {
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kMarker, 0, id, clock_);
  }
}

void ThreadContext::StoreTimed(Addr addr) {
  const Cycles t0 = clock_;
  AccessRecord& r = *arena_.Alloc();
  hier_->Store(addr, clock_, &r);
  Cycles latency;
  if (r.hit_level >= 1) {
    latency = ScaleCore(r.complete_at - clock_);
  } else {
    // Posted store: the RFO proceeds in the background (its bandwidth and
    // cache fills have been accounted); the pipeline pays a fixed cost.
    latency = ScaleCore(cpu_.store_miss_post_cost);
  }
  clock_ += latency + ScaleCore(cpu_.store_issue_cost);
  if (attribution_ != nullptr) {
    // A hit's latency is its level's stage. A posted miss's RFO memory
    // latency is off the critical path, so its pipeline cost stays in core
    // (the background traffic is visible in the bandwidth counters, not here).
    attribution_->RecordStage(AttributionCollector::kStore, clock_ - t0, CacheHitStage(r.hit_level),
                              r.hit_level != 0 ? latency : 0);
  }
}

void ThreadContext::Store64(Addr addr, uint64_t value) {
  StoreTimed(addr);
  backing_->WriteU64(addr, value);
  if (observer_ != nullptr) {
    observer_->OnStore(addr, sizeof(value), clock_);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kStore64, addr, 0, clock_);
  }
}

void ThreadContext::StoreLine(Addr addr) {
  StoreTimed(addr);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kStoreLine, addr, 0, clock_);
  }
}

void ThreadContext::Read(Addr addr, void* out, size_t len) {
  // Touch each covered cacheline once for timing, then copy the bytes.
  for (Addr line = CacheLineBase(addr); line < addr + len; line += kCacheLineSize) {
    (void)LoadInternal(line, /*train=*/true);
  }
  backing_->Read(addr, out, len);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kRead, addr, len, clock_);
  }
}

void ThreadContext::Write(Addr addr, const void* data, size_t len) {
  for (Addr line = CacheLineBase(addr); line < addr + len; line += kCacheLineSize) {
    StoreTimed(line);
  }
  backing_->Write(addr, data, len);
  if (observer_ != nullptr) {
    observer_->OnStore(addr, len, clock_);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kWrite, addr, len, clock_);
  }
}

void ThreadContext::TrackPersist(Addr line, Cycles accepted_at, bool is_flush) {
  // Store-buffer back-pressure: too many unaccepted persists stall the core.
  if (outstanding_.size() >= cpu_.store_buffer_depth) {
    AdvanceTo(outstanding_.front().accepted_at);
    outstanding_.pop_front();
  }
  outstanding_.push_back({line, accepted_at, is_flush});
  DrainRetired();
}

void ThreadContext::DrainRetired() {
  while (!outstanding_.empty() && outstanding_.front().accepted_at <= clock_) {
    outstanding_.pop_front();
  }
}

void ThreadContext::NoteRecentFlush(Addr line) {
  for (uint32_t i = 0; i < recent_flush_count_; ++i) {
    if (recent_flushes_[i] == line) {
      return;
    }
  }
  if (recent_flush_count_ < recent_flushes_.size()) {
    recent_flushes_[recent_flush_count_++] = line;
  } else {
    // Keep the two newest lines, oldest first.
    recent_flushes_[0] = recent_flushes_[1];
    recent_flushes_[1] = line;
  }
}

void ThreadContext::Flush(Addr addr, bool invalidate) {
  if (eadr_) {
    // eADR (paper §6): the CPU caches are inside the persistence domain —
    // stores are durable once globally visible, so a flush (including its
    // invalidation) buys nothing and retires as a cheap no-op.
    clock_ += 1;
    if (attribution_ != nullptr) {
      attribution_->RecordStage(AttributionCollector::kFlush, 1, AttributionCollector::kCore, 0);
    }
  } else {
    const Addr line = CacheLineBase(addr);
    const Cycles t0 = clock_;
    const FlushResult r = hier_->Flush(line, clock_, invalidate);
    clock_ += std::max<Cycles>(r.cost, cpu_.flush_issue_cost);
    NoteRecentFlush(line);
    const Cycles pre_track = clock_;
    if (r.wrote) {
      TrackPersist(line, r.accepted_at, /*is_flush=*/true);
    }
    if (attribution_ != nullptr) {
      // Any clock advance inside TrackPersist is store-buffer back-pressure:
      // waiting on the oldest outstanding persist's WPQ acceptance.
      RecordPersistOp(AttributionCollector::kFlush, t0, clock_ - pre_track,
                      r.wrote ? r.accepted_at : 0);
    }
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, invalidate ? TraceOp::kClflushopt : TraceOp::kClwb, addr, 0,
                      clock_);
  }
}

void ThreadContext::NtStoreTimed(Addr line) {
  const Cycles t0 = clock_;
  hier_->InvalidateAll(line);
  const McWriteResult w = mc_->Write(line, clock_, node_);
  clock_ += cpu_.nt_store_issue_cost;
  const Cycles pre_track = clock_;
  TrackPersist(line, w.accepted_at, /*is_flush=*/false);
  if (attribution_ != nullptr) {
    RecordPersistOp(AttributionCollector::kNtStore, t0, clock_ - pre_track, w.accepted_at);
  }
}

void ThreadContext::NtStoreLine(Addr addr, const void* data64) {
  // Data lands in the backing store before the iMC write so persist-path
  // observers (PersistObserver::OnPmWrite) capture the new bytes.
  const Addr line = CacheLineBase(addr);
  if (data64 != nullptr) {
    backing_->Write(line, data64, kCacheLineSize);
  }
  NtStoreTimed(line);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kNtStoreLine, addr, 0, clock_);
  }
}

void ThreadContext::NtStore64(Addr addr, uint64_t value) {
  // Timing is line-granular (write-combining buffers merge within the line).
  backing_->WriteU64(addr, value);
  NtStoreTimed(CacheLineBase(addr));
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kNtStore64, addr, 0, clock_);
  }
}

void ThreadContext::NtWrite(Addr addr, const void* data, size_t len) {
  backing_->Write(addr, data, len);
  for (Addr line = CacheLineBase(addr); line < addr + len; line += kCacheLineSize) {
    NtStoreTimed(line);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kNtWrite, addr, len, clock_);
  }
}

void ThreadContext::FenceCommon(bool is_mfence) {
  const Cycles t0 = clock_;
  Cycles wait_until = clock_;
  for (size_t i = 0; i < outstanding_.size(); ++i) {
    const Outstanding& o = outstanding_.at(i);
    wait_until = std::max(wait_until, o.accepted_at);
    if (is_mfence && o.is_flush) {
      // mfence orders younger loads after the flush's effects: any scheduled
      // invalidation becomes visible to them immediately.
      hier_->ForcePendingInvalidate(o.line);
    }
  }
  clock_ = wait_until + cpu_.fence_cost;
  outstanding_.clear();
  if (is_mfence) {
    recent_flush_count_ = 0;  // younger loads are ordered after the flushes
  }
  loads_ordered_ = is_mfence;
  if (attribution_ != nullptr) {
    // The wait for outstanding WPQ acceptances is where the asynchronous
    // persist delays become synchronous: the fence's wpq_wait stage.
    attribution_->RecordStage(AttributionCollector::kFence, clock_ - t0,
                              AttributionCollector::kWpqWait, wait_until - t0);
  }
  if (observer_ != nullptr) {
    observer_->OnFence(clock_);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, is_mfence ? TraceOp::kMfence : TraceOp::kSfence, 0, 0, clock_);
  }
}

void ThreadContext::Sfence() { FenceCommon(/*is_mfence=*/false); }

void ThreadContext::Mfence() { FenceCommon(/*is_mfence=*/true); }

void ThreadContext::StreamCopyXPLine(Addr pm_xpline, Addr dram_buffer) {
  const Addr base = XPLineBase(pm_xpline);
  uint8_t buf[kXPLineSize];
  for (uint64_t i = 0; i < kLinesPerXPLine; ++i) {
    // 512-bit load that bypasses prefetch training...
    (void)LoadInternal(base + i * kCacheLineSize, /*train=*/false);
    clock_ += cpu_.simd_copy_cost;
    // ...paired with a store into the DRAM-resident bounce buffer.
    AccessRecord& r = *arena_.Alloc();
    hier_->Store(dram_buffer + i * kCacheLineSize, clock_, &r);
    clock_ = r.complete_at;
  }
  backing_->Read(base, buf, kXPLineSize);
  backing_->Write(dram_buffer, buf, kXPLineSize);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kStreamCopy, pm_xpline, dram_buffer, clock_);
  }
}

void ThreadContext::ResetMicroarchState() {
  hier_->ClearPrivate();
  outstanding_.clear();
  recent_flush_count_ = 0;
  loads_ordered_ = false;
}

}  // namespace pmemsim
