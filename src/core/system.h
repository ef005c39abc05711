// System: the top-level facade a pmemsim user interacts with.
//
// Owns the simulated machine — backing store, memory controller (Optane DIMMs
// + DRAM), the shared L3 — and hands out PmRegions (address ranges) and
// ThreadContexts (execution streams). See examples/quickstart.cc for usage.

#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "src/cache/cache.h"
#include "src/common/backing_store.h"
#include "src/common/config.h"
#include "src/common/types.h"
#include "src/cpu/thread_context.h"
#include "src/imc/memory_controller.h"
#include "src/trace/counters.h"
#include "src/trace/registry.h"
#include "src/trace/sampler.h"

namespace pmemsim {

// A reserved range of the simulated address space.
struct PmRegion {
  Addr base = 0;
  uint64_t size = 0;
  MemoryKind kind = MemoryKind::kOptane;

  Addr At(uint64_t offset) const { return base + offset; }
  Addr end() const { return base + size; }
};

class System {
 public:
  // `optane_dimm_count` of 0 means kTestbedOptaneDimms (the paper measures
  // both a single non-interleaved DIMM and the testbed's interleaved set).
  explicit System(const PlatformConfig& config, uint32_t optane_dimm_count = 0);

  // Region allocation (bump allocator; regions are never freed).
  PmRegion AllocatePm(uint64_t bytes, uint64_t align = kXPLineSize);
  PmRegion AllocateDram(uint64_t bytes, uint64_t align = kCacheLineSize);

  // Creates an execution stream pinned to `node` (node 1 = remote socket).
  ThreadContext& CreateThread(NodeId node = 0);

  // Creates an execution stream on `sibling`'s other hyperthread: it shares
  // that thread's private caches and prefetch engine.
  ThreadContext& CreateSmtSibling(ThreadContext& sibling);

  const PlatformConfig& config() const { return config_; }
  // System-wide totals: a live aggregation over the per-DIMM/per-thread
  // scopes, re-materialized on every access (and by CounterDelta).
  const Counters& counters() const {
    counters_.Sync();
    return counters_;
  }
  // Per-writer scopes ("optane_dimmN", "dram", "imc", "threadN").
  const CounterRegistry& counter_registry() const { return registry_; }
  MemoryController& mc() { return *mc_; }
  SetAssocCache& shared_l3() { return *l3_; }
  BackingStore& backing() { return backing_; }

  // Drops all timing state (caches, buffers, queues, clocks) but keeps data
  // and counters. Used between benchmark configurations.
  void ResetMicroarchState();

  // Installs (or clears, with nullptr) the persist-path observer on the
  // memory controller, every existing thread and every thread created
  // afterwards. Used by the crash-consistency subsystem's PersistTracker.
  void SetPersistObserver(PersistObserver* observer);

  // Installs (or clears, with nullptr) the latency-attribution collector on
  // every existing thread and every thread created afterwards (--breakdown).
  void SetAttribution(AttributionCollector* collector);

  // Installs (or clears, with nullptr) the trace recorder on every existing
  // thread and every thread created afterwards. Trace thread ids follow
  // creation order, and each thread is declared to the recorder's thread
  // table together with its NUMA node so replay recreates the same topology.
  void SetTraceRecorder(TraceRecorder* recorder);

  // Instantaneous occupancy across the machine's Optane DIMMs and WPQs — the
  // gauge source for interval sampling (Sampler::SetGaugeSource).
  SampleGauges ReadGauges(Cycles now);

  // Installs (or clears, with an empty function) an additional gauge filler
  // consulted by ReadGauges after the DIMM sweep. Higher layers (the serving
  // tier's request queues) use it to surface their occupancy through the same
  // sampling path without the core layer depending on them.
  using ExtraGaugeFn = std::function<void(Cycles now, SampleGauges* g)>;
  void SetExtraGaugeSource(ExtraGaugeFn fn) { extra_gauges_ = std::move(fn); }

 private:
  // The counter scope ("threadN") of the next thread to be created.
  Counters* NextThreadScope();
  // Takes ownership of a new thread and installs the system-wide hooks on
  // it: persist observer, attribution collector, trace-recorder declaration.
  ThreadContext& AdoptThread(std::unique_ptr<ThreadContext> thread);

  PlatformConfig config_;
  CounterRegistry registry_;
  Counters counters_;  // aggregate view, bound to registry_
  BackingStore backing_;
  std::unique_ptr<MemoryController> mc_;
  std::unique_ptr<SetAssocCache> l3_;
  std::deque<std::unique_ptr<ThreadContext>> threads_;
  ExtraGaugeFn extra_gauges_;

  Addr pm_next_ = kPageSize;
  Addr dram_next_ = kDramAddressBase;
  uint64_t thread_seed_ = 0xA11CE;
  PersistObserver* persist_observer_ = nullptr;
  AttributionCollector* attribution_ = nullptr;
  TraceRecorder* trace_recorder_ = nullptr;
};

}  // namespace pmemsim

#endif  // SRC_CORE_SYSTEM_H_
