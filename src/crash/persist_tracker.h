// PersistTracker: a shadow durable image of persistent memory.
//
// The tracker is the System's PersistObserver, which sees
//  - every retired store and every fence of each ThreadContext, and
//  - every cacheline that reaches an Optane iMC (clwb/clflushopt write-backs,
//    nt-stores, dirty L3 evictions).
//
// From those it keeps an ordered record of every PM write with the cycle at
// which the write becomes crash-proof:
//  - ADR platforms: a write is durable once the WPQ *accepts* it
//    (accepted_at); everything still in the cache hierarchy or in flight to
//    the iMC is lost on power failure, and an in-flight line may tear.
//  - eADR platforms (PlatformConfig::eadr_enabled): the persistence domain
//    includes the caches, so a store is durable the moment it retires.
//
// Materialize() replays the record list up to a crash cycle into a fresh
// BackingStore, producing exactly the bytes a real machine would find after
// the power came back: durable writes applied in full, in-flight writes
// individually surviving / lost / torn under a seeded deterministic draw.
// Tearing respects the x86 8-byte failure-atomicity unit by default, with an
// optional sub-8-byte (per-byte prefix) mode.
//
// The tracker also feeds the CrashInjector: after StartEvents(), every WPQ
// accept, WPQ drain, and fence completion becomes a numbered crash point.
// Independently of the injector, the vulnerable-byte window (in-cache vs
// in-WPQ bytes not yet durable) is sampled at every tracked write and fence.

#ifndef SRC_CRASH_PERSIST_TRACKER_H_
#define SRC_CRASH_PERSIST_TRACKER_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/backing_store.h"
#include "src/common/flat_map.h"
#include "src/common/types.h"
#include "src/core/system.h"
#include "src/crash/crash_injector.h"
#include "src/cpu/persist_observer.h"

namespace pmemsim {

class PersistTracker : public PersistObserver {
 public:
  // How in-flight writes may tear in Materialize().
  enum class TearGranularity : uint8_t {
    kWord,     // each aligned 8-byte word survives or not atomically
    kSubword,  // a torn word may additionally keep only a byte prefix
  };

  struct Stats {
    uint64_t samples = 0;                // window samples (every tracked write/fence)
    uint64_t max_in_cache_bytes = 0;     // dirty PM lines not yet at the iMC
    uint64_t max_in_wpq_bytes = 0;       // lines issued to the iMC, not accepted
    uint64_t max_vulnerable_bytes = 0;   // union of the two, per sample
    uint64_t sum_vulnerable_bytes = 0;   // across samples (for the mean)
    double MeanVulnerableBytes() const {
      return samples == 0 ? 0.0 : static_cast<double>(sum_vulnerable_bytes) /
                                      static_cast<double>(samples);
    }
  };

  struct MaterializeResult {
    uint64_t durable_writes = 0;   // applied in full (matured or eADR)
    uint64_t inflight_writes = 0;  // subject to the survive/lose/tear draw
    uint64_t survived_writes = 0;
    uint64_t lost_writes = 0;
    uint64_t torn_writes = 0;
  };

  explicit PersistTracker(bool eadr_enabled) : eadr_(eadr_enabled) {}
  ~PersistTracker() override;

  PersistTracker(const PersistTracker&) = delete;
  PersistTracker& operator=(const PersistTracker&) = delete;

  // Installs this tracker as `system`'s persist observer.
  // Attach before the workload's first PM write (ideally right after
  // constructing the System) so the durable image is complete.
  void Attach(System* system);

  // Begins forwarding crash events to `injector` and accumulating vulnerable-
  // byte stats. Call after workload Setup() so that setup-phase persists are
  // recorded (they shape the image) but are not crash points.
  void StartEvents(CrashInjector* injector) { injector_ = injector; }

  // PersistObserver:
  void OnStore(Addr addr, uint64_t len, Cycles now) override;
  void OnFence(Cycles now) override;
  void OnPmWrite(Addr line, Cycles issue, Cycles accepted_at, Cycles drained_at) override;

  // Replays the record list into `out`, modeling a power failure at simulated
  // cycle `crash_now`. Deterministic for a given (records, crash_now,
  // tear_seed, granularity). Under eADR every recorded write is durable and
  // `tear_seed` is unused.
  MaterializeResult Materialize(BackingStore* out, Cycles crash_now, uint64_t tear_seed,
                                TearGranularity granularity) const;

  const Stats& stats() const { return stats_; }
  uint64_t recorded_writes() const { return records_.size(); }

 private:
  struct Record {
    Addr addr = 0;
    uint32_t len = 0;
    // eADR store records are durable unconditionally; iMC records mature at
    // accepted_at (ADR) or are likewise unconditional (eADR).
    bool retired_store = false;
    Cycles accepted_at = 0;
    size_t data_offset = 0;  // the written bytes: snapshots_[data_offset, +len)
  };

  // Appends a record of [addr, addr + len) with its current bytes.
  void AddRecord(Addr addr, uint32_t len, bool retired_store, Cycles accepted_at);

  // Forwards one crash point to the injector (may throw CrashSignal).
  void NoteEvent(CrashEventKind kind, Cycles now);
  // Retires pending writes the WPQ has accepted by `now`.
  void PurgeMatured(Cycles now);
  // Records the current vulnerable-byte window into the stats.
  void SampleWindow();

  bool eadr_;
  System* system_ = nullptr;
  CrashInjector* injector_ = nullptr;
  std::vector<Record> records_;
  std::vector<uint8_t> snapshots_;  // every record's bytes, back to back

  // ADR bookkeeping for the vulnerable-byte stats. The stats are sums and
  // maxima over these sets, never ordered output, so hash order is safe.
  FlatMap<Addr, bool> dirty_lines_;   // written, not yet at the iMC
  FlatMap<Addr, uint32_t> inflight_;  // at the iMC, not yet accepted (count)
  // Lines in both sets (re-dirtied while in flight), kept current at every
  // insert and erase above so a window sample is constant time.
  uint64_t overlap_lines_ = 0;
  // Pending accepts as (accepted_at, line), earliest on top.
  using PendingAccept = std::pair<Cycles, Addr>;
  std::priority_queue<PendingAccept, std::vector<PendingAccept>, std::greater<>> pending_accepts_;
  Cycles accept_watermark_ = 0;
  Stats stats_;
};

}  // namespace pmemsim

#endif  // SRC_CRASH_PERSIST_TRACKER_H_
