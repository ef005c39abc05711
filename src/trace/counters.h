// Telemetry counters: the simulator's equivalent of `ipmwatch` plus internal
// buffer statistics the real hardware never exposes.
//
// Counting points mirror the paper's metric definitions (§2.4):
//   imc_*_bytes   — traffic crossing the iMC<->DIMM boundary (64 B units)
//   media_*_bytes — traffic crossing the buffer<->3D-Xpoint boundary (256 B)
//   WA = media_write_bytes / imc_write_bytes
//   RA = media_read_bytes  / imc_read_bytes
//
// Scoping model: each writer (a DIMM, a WPQ, a thread, the iMC itself) owns a
// scope-local Counters inside a CounterRegistry and only ever increments that
// one. The system-level Counters is *bound* to the registry and materializes
// the sum over scopes on Sync(); System::counters() and CounterDelta call
// Sync() so existing read sites observe live totals.

#ifndef SRC_TRACE_COUNTERS_H_
#define SRC_TRACE_COUNTERS_H_

#include <cstdint>
#include <string>

// Single source of truth for the counter fields: every operator, the JSON
// (de)serializer, and the registry aggregation iterate this list, so adding a
// field here is the whole change.
#define PMEMSIM_COUNTER_FIELDS(X)                                            \
  /* iMC boundary (what the processor requested of persistent memory). */    \
  X(imc_read_bytes)                                                          \
  X(imc_write_bytes)                                                         \
  /* Media boundary (what actually hit the 3D-Xpoint media). */              \
  X(media_read_bytes)                                                        \
  X(media_write_bytes)                                                       \
  /* On-DIMM buffer behaviour. */                                            \
  X(read_buffer_hits)                                                        \
  X(read_buffer_misses)                                                      \
  X(write_buffer_hits)                                                       \
  X(write_buffer_misses)                                                     \
  X(write_buffer_evictions)                                                  \
  X(periodic_writebacks)                                                     \
  X(rmw_media_reads)                                                         \
  X(read_write_transitions)                                                  \
  /* AIT translation cache. */                                               \
  X(ait_hits)                                                                \
  X(ait_misses)                                                              \
  /* iMC queues. */                                                          \
  X(wpq_stall_cycles)                                                        \
  X(rap_stall_cycles)                                                        \
  X(rap_stalled_loads)                                                       \
  /* CPU-side. */                                                            \
  X(demand_loads)                                                            \
  X(demand_stores)                                                           \
  X(prefetch_requests)                                                       \
  X(l1_hits)                                                                 \
  X(l2_hits)                                                                 \
  X(l3_hits)                                                                 \
  X(cache_misses)                                                            \
  /* DRAM boundary. */                                                       \
  X(dram_read_bytes)                                                         \
  X(dram_write_bytes)

namespace pmemsim {

class CounterRegistry;
class JsonWriter;

struct Counters {
  // Field semantics (beyond the section comments in the list above):
  //   write_buffer_hits       — 64 B write merged into a resident XPLine
  //   write_buffer_misses     — 64 B write that allocated a new entry
  //   rmw_media_reads         — media reads forced by partial-line eviction
  //   read_write_transitions  — XPLine moved read buffer -> write buffer
  //   wpq_stall_cycles        — cycles stores waited for WPQ space
  //   rap_stall_cycles        — cycles loads waited on in-flight persists
  //   prefetch_requests       — prefetches that reached the iMC
  //   cache_misses            — demand misses that reached memory
#define PMEMSIM_DECLARE_FIELD(name) uint64_t name = 0;
  PMEMSIM_COUNTER_FIELDS(PMEMSIM_DECLARE_FIELD)
#undef PMEMSIM_DECLARE_FIELD

  Counters() = default;
  // Copies counter values only: a copy of a registry-bound aggregate is a
  // plain snapshot, and assignment never re-binds the destination.
  Counters(const Counters& other);
  Counters& operator=(const Counters& other);

  double WriteAmplification() const {
    return imc_write_bytes ? static_cast<double>(media_write_bytes) /
                                 static_cast<double>(imc_write_bytes)
                           : 0.0;
  }
  double ReadAmplification() const {
    return imc_read_bytes ? static_cast<double>(media_read_bytes) /
                                static_cast<double>(imc_read_bytes)
                          : 0.0;
  }
  double WriteBufferHitRatio() const {
    const uint64_t total = write_buffer_hits + write_buffer_misses;
    return total ? static_cast<double>(write_buffer_hits) / static_cast<double>(total) : 0.0;
  }
  double ReadBufferHitRatio() const {
    const uint64_t total = read_buffer_hits + read_buffer_misses;
    return total ? static_cast<double>(read_buffer_hits) / static_cast<double>(total) : 0.0;
  }

  Counters operator-(const Counters& rhs) const;
  Counters& operator+=(const Counters& rhs);
  bool operator==(const Counters& rhs) const;
  bool operator!=(const Counters& rhs) const { return !(*this == rhs); }

  // Binds this struct as the live aggregate over `registry`'s scopes: Sync()
  // re-materializes the fields as the sum. Plain (writer-owned) counters are
  // never bound and Sync() is a no-op on them. Logically const: reading an
  // aggregate refreshes the cached materialization.
  void BindAggregate(const CounterRegistry* registry);
  void Sync() const;

  std::string ToString() const;
  // Serializes every raw field plus a "derived" block (WA/RA/hit ratios).
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

 private:
  const CounterRegistry* aggregate_source_ = nullptr;
};

// Iterates (name, value) over every counter field; `CountersT` may be const.
template <typename CountersT, typename Fn>
void ForEachCounterField(CountersT& c, Fn&& fn) {
#define PMEMSIM_VISIT_FIELD(name) fn(#name, c.name);
  PMEMSIM_COUNTER_FIELDS(PMEMSIM_VISIT_FIELD)
#undef PMEMSIM_VISIT_FIELD
}

// RAII snapshot: captures `*counters` at construction; Delta() returns the
// difference accumulated since. Works on both plain counters and the
// registry-bound aggregate (each access Sync()s the source first).
class CounterDelta {
 public:
  explicit CounterDelta(const Counters* counters) : counters_(counters) {
    counters_->Sync();
    base_ = *counters_;
  }

  Counters Delta() const {
    counters_->Sync();
    return *counters_ - base_;
  }
  void Rebase() {
    counters_->Sync();
    base_ = *counters_;
  }

 private:
  const Counters* counters_;
  Counters base_;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_COUNTERS_H_
