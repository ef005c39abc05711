// ThreadContext: the per-(simulated-)thread execution engine. Owns the thread
// clock and the private L1/L2 caches, and exposes an x86-flavoured operation
// set — loads, stores, cacheline flushes, non-temporal stores, fences, and
// the AVX streaming copy of Algorithm 2 — each advancing the clock by the
// mechanistically computed latency.
//
// Data is real: every operation also reads/writes the shared BackingStore, so
// data structures built on top behave like genuine persistent structures.

#ifndef SRC_CPU_THREAD_CONTEXT_H_
#define SRC_CPU_THREAD_CONTEXT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/cache/hierarchy.h"
#include "src/common/access_record.h"
#include "src/common/backing_store.h"
#include "src/common/config.h"
#include "src/common/types.h"
#include "src/cpu/persist_observer.h"
#include "src/imc/memory_controller.h"
#include "src/trace/attribution.h"
#include "src/trace/counters.h"

namespace pmemsim {

class TraceRecorder;

class ThreadContext {
 public:
  ThreadContext(const PlatformConfig& config, BackingStore* backing, MemoryController* mc,
                SetAssocCache* shared_l3, Counters* counters, NodeId node, uint64_t rng_seed);

  // An SMT sibling shares `sibling`'s core: its private L1/L2 caches and
  // prefetch engine are the same objects (the paper binds the helper thread
  // to the worker's sibling hyperthread, §4.1).
  ThreadContext(const PlatformConfig& config, BackingStore* backing, MemoryController* mc,
                Counters* counters, ThreadContext* sibling);

  // --- clock ---
  Cycles clock() const { return clock_; }
  void AdvanceTo(Cycles t);
  void AddCompute(Cycles c) {
    clock_ += ScaleCore(c);
    if (recorder_ != nullptr) {
      RecordCompute(c);
    }
  }

  // --- demand accesses (timed + data) ---
  uint64_t Load64(Addr addr);
  void Store64(Addr addr, uint64_t value);
  // Timing-only cacheline touches.
  void LoadLine(Addr addr);
  void StoreLine(Addr addr);
  // Bulk, line-granular timed accesses.
  void Read(Addr addr, void* out, size_t len);
  void Write(Addr addr, const void* data, size_t len);

  // A load that does not train the prefetchers (AVX/streaming access path).
  uint64_t Load64NoPrefetch(Addr addr);

  // Issues independent loads with full memory-level parallelism: the clock
  // advances to the latest completion rather than the sum (helper-thread
  // prefetch loops have no dependent chain across addresses).
  void LoadMulti(const Addr* addrs, size_t count);

  // SMT co-run penalty: scales core-local costs (cache hits, compute, issue
  // and fence costs) while memory-side latencies stay physical. Set to ~1.3
  // when a sibling hyperthread (e.g. a helper prefetcher) shares the core.
  void SetSmtScale(double scale) { smt_scale_ = scale; }
  double smt_scale() const { return smt_scale_; }

  // --- persistence ops ---
  // clwb and clflushopt are one flush that differs only in whether the
  // written-back line may stay cached (see Flush). Under eADR both retire as
  // one-cycle no-ops: the caches are in the persistence domain.
  void Clwb(Addr addr) { Flush(addr, /*invalidate=*/false); }
  void Clflushopt(Addr addr) { Flush(addr, /*invalidate=*/true); }
  // Non-temporal 64 B store: bypasses (and snoop-invalidates) the caches,
  // heads straight for the WPQ.
  void NtStoreLine(Addr addr, const void* data64);
  void NtStore64(Addr addr, uint64_t value);
  // Non-temporal write of an arbitrary range (line granular under the hood).
  void NtWrite(Addr addr, const void* data, size_t len);
  void Sfence();
  void Mfence();

  // Algorithm 2: copy one XPLine from PM into a DRAM-resident buffer with
  // four 512-bit moves that bypass prefetch training, then return the copy's
  // completion. Subsequent reads should target `dram_buffer`.
  void StreamCopyXPLine(Addr pm_xpline, Addr dram_buffer);

  // --- introspection ---
  size_t outstanding_persists() const { return outstanding_.size(); }

  CacheHierarchy& hierarchy() { return *hier_; }
  BackingStore& backing() { return *backing_; }
  NodeId node() const { return node_; }

  // Installs (or clears, with nullptr) a store/fence observer. Used by the
  // crash-consistency subsystem's PersistTracker; at most one at a time.
  void SetPersistObserver(PersistObserver* observer) { observer_ = observer; }

  // Installs (or clears, with nullptr) the per-access latency-attribution
  // collector (the benches' --breakdown flag). Every timed operation then
  // records its end-to-end latency and stage decomposition; with no collector
  // the only hot-path cost is one pointer test per operation.
  void SetAttribution(AttributionCollector* collector) { attribution_ = collector; }

  // Installs (or clears, with nullptr) the trace recorder; `tid` is this
  // thread's id in the trace's thread table (System::SetTraceRecorder assigns
  // creation order). Every public timed operation then appends one record;
  // with no recorder the only hot-path cost is one pointer test per op.
  void SetTraceRecorder(TraceRecorder* recorder, uint32_t tid) {
    recorder_ = recorder;
    trace_tid_ = tid;
  }

  // Emits a phase-boundary marker into the trace (no clock or counter effect;
  // a no-op without a recorder). The replayer fires its on_marker callback at
  // the same stream position, so phase-delimited metrics reproduce exactly.
  void TraceMarker(uint32_t id);

  // Test helper: drop private cache state and pending persist tracking.
  void ResetMicroarchState();

 private:
  struct Outstanding {
    Addr line = 0;
    Cycles accepted_at = 0;
    bool is_flush = false;  // clwb/clflushopt (has a scheduled invalidation)
  };

  // Fixed-capacity power-of-two ring of outstanding persists. Occupancy is
  // bounded by the store-buffer depth (TrackPersist retires the oldest entry
  // before exceeding it), so the ring never reallocates after Init.
  class OutstandingRing {
   public:
    void Init(size_t capacity) {
      size_t cap = 1;
      while (cap < capacity) {
        cap <<= 1;
      }
      buf_.assign(cap, Outstanding{});
      mask_ = cap - 1;
      clear();
    }
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    const Outstanding& front() const { return buf_[head_ & mask_]; }
    const Outstanding& at(size_t i) const { return buf_[(head_ + i) & mask_]; }
    void pop_front() {
      ++head_;
      --size_;
    }
    void push_back(const Outstanding& o) {
      buf_[(head_ + size_) & mask_] = o;
      ++size_;
    }
    void clear() {
      head_ = 0;
      size_ = 0;
    }

   private:
    std::vector<Outstanding> buf_;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  void TrackPersist(Addr line, Cycles accepted_at, bool is_flush);
  void DrainRetired();
  // Times one load from clock_ and advances the clock past it; returns where
  // its latency went (the record stays valid until the next access).
  const AccessRecord& TimeLoad(Addr addr, bool train);
  // TimeLoad plus attribution; returns the loaded word.
  uint64_t LoadInternal(Addr addr, bool train);
  // The one flush: the eADR no-op retire, or the cache write-back (see
  // CacheHierarchy::Flush) tracked as an outstanding persist.
  void Flush(Addr addr, bool invalidate);
  // Times one nt-store of `line`: snoop-invalidate, WPQ write, issue cost,
  // persist tracking and attribution. Callers write the data and the trace.
  void NtStoreTimed(Addr line);
  void FenceCommon(bool is_mfence);
  Cycles ScaleCore(Cycles c) const;
  void StoreTimed(Addr addr);
  void NoteRecentFlush(Addr line);
  // Attribution recording (called only with attribution_ != nullptr).
  void RecordLoad(Cycles end_to_end, const AccessRecord& r);
  void RecordPersistOp(AttributionCollector::Op op, Cycles t0, Cycles wpq_wait, Cycles accepted_at);
  // Trace recording for AddCompute (called only with recorder_ != nullptr).
  void RecordCompute(Cycles c);

  CpuConfig cpu_;
  bool eadr_ = false;  // caches are persistent: flushes are unnecessary
  BackingStore* backing_;
  MemoryController* mc_;
  Counters* counters_;
  NodeId node_;

  CacheHierarchy own_hierarchy_;
  CacheHierarchy* hier_;  // == &own_hierarchy_, or the SMT sibling's
  Cycles clock_ = 0;

  PersistObserver* observer_ = nullptr;
  AttributionCollector* attribution_ = nullptr;
  TraceRecorder* recorder_ = nullptr;
  uint32_t trace_tid_ = 0;
  OutstandingRing outstanding_;
  bool loads_ordered_ = false;  // true after mfence, false after sfence
  // Lines flushed by the most recent clwb/clflushopt ops whose cache-side
  // invalidation has not architecturally retired for younger unordered loads
  // (the out-of-order window that keeps sfence RAP low at distance <= 1).
  // At most the two newest such lines matter, so a two-slot array suffices.
  std::array<Addr, 2> recent_flushes_{};
  uint32_t recent_flush_count_ = 0;
  double smt_scale_ = 1.0;
  // Per-thread arena for access-result records: every timed load/store
  // allocates its record here and the memory layers fill it in place.
  AccessArena arena_;
};

}  // namespace pmemsim

#endif  // SRC_CPU_THREAD_CONTEXT_H_
