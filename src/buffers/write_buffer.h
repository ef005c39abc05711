// On-DIMM write-combining buffer (paper §3.2).
//
// Findings modeled here:
//  * ~16 KB of XPLine entries; on G1 only ~12 KB is usable for partially
//    written XPLines (the WA knee at 12 KB in Fig. 3);
//  * two write-back mechanisms on G1: fully written XPLines are flushed to
//    media periodically (~5,000 cycles), partially written XPLines are
//    retained until evicted;
//  * random-victim eviction (the graceful hit-ratio decay of Fig. 4); G1
//    drains a batch on overflow (sharper cliff), G2 evicts one victim;
//  * evicting a partially written XPLine is a read-modify-write: the missing
//    cachelines must be fetched from media (unless the XPLine sits in the
//    read buffer — the §3.3 transition is handled by OptaneDimm).
//
// The buffer never touches the media itself: mutation methods return the set
// of XPLines the owner must write back (and whether each needs an RMW fetch).

#ifndef SRC_BUFFERS_WRITE_BUFFER_H_
#define SRC_BUFFERS_WRITE_BUFFER_H_

#include <cstdint>
#include <vector>

#include "src/common/config.h"
#include "src/common/flat_map.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/trace/counters.h"

namespace pmemsim {

// A write-back the owner must perform against the media.
struct WritebackRequest {
  Addr xpline = 0;
  bool needs_rmw = false;  // partially dirty: fetch missing lines first
  bool periodic = false;   // came from the periodic full-line write-back
};

class WriteBuffer {
 public:
  // `rng_seed` seeds the random-victim stream (one per DIMM).
  WriteBuffer(const WriteBufferConfig& config, Counters* counters, uint64_t rng_seed);

  // Records a 64 B write arriving from the WPQ at time `now` that becomes
  // readable at `visible_at`. Appends any required write-backs (evictions
  // needed to make room) to `writebacks`. Returns true if the write merged
  // into a resident entry (a write-buffer hit).
  bool Write(Addr line_addr, Cycles now, Cycles visible_at,
             std::vector<WritebackRequest>& writebacks);

  // Advances the periodic write-back clock; appends due full-line write-backs.
  void Tick(Cycles now, std::vector<WritebackRequest>& writebacks);

  // True if the XPLine occupies an entry (dirty or clean).
  bool ContainsXPLine(Addr addr) const;

  // Everything the DIMM read path asks of the buffer, answered by a single
  // index probe: whether the cacheline's latest value resides in the buffer,
  // its VisibleAt, and ContainsXPLine.
  struct ReadSnoopResult {
    bool holds_line = false;       // valid data for this cacheline
    bool contains_xpline = false;  // the XPLine occupies an entry
    Cycles visible_at = 0;         // apply time; meaningful only if holds_line
  };
  ReadSnoopResult ReadSnoop(Addr line_addr) const {
    ReadSnoopResult s;
    if (keys_.empty()) {
      return s;  // read-mostly phases: skip the hash probe entirely
    }
    const uint32_t* pos = index_.Find(XPLineBase(line_addr));
    if (pos == nullptr) {
      return s;
    }
    s.contains_xpline = true;
    const Entry& e = entries_[*pos];
    const uint64_t idx = LineIndexInXPLine(line_addr);
    if ((e.valid_mask >> idx) & 1u) {
      s.holds_line = true;
      s.visible_at = e.visible_at[idx];
    }
    return s;
  }

  // True when the periodic write-back clock is due: lets the owner skip the
  // Tick call (and its scratch-vector handling) on the overwhelmingly common
  // not-due reads. Tick itself re-checks, so the gate is purely an early-out.
  bool TickDue(Cycles now) const {
    return config_.periodic_full_writeback &&
           now >= last_periodic_tick_ + config_.full_writeback_period;
  }

  // Time at which the most recent write to this cacheline becomes readable;
  // 0 if the line is not resident (or already visible). Reads to the line
  // must stall until this time (read-after-persist, paper §3.5).
  Cycles VisibleAt(Addr line_addr) const;

  // Installs an XPLine arriving from the read buffer with one line already
  // written (the §3.3 read->write transition). Appends evictions if needed.
  void InstallTransition(Addr line_addr, Cycles now, Cycles visible_at,
                         std::vector<WritebackRequest>& writebacks);

  // Completes a resident entry with the rest of its XPLine fetched from
  // media (the on-demand read-modify-write merge: a read to a not-yet-valid
  // line of a write-buffered XPLine pulls the whole XPLine in). Returns false
  // if the XPLine is not resident.
  bool AbsorbFill(Addr addr);

  // Flushes every dirty entry (used by tests and drain-at-end accounting).
  void DrainAll(std::vector<WritebackRequest>& writebacks);

  void Clear();

  // Host-side hint: warm the index bucket a lookup of `addr` will probe.
  // No simulated effect.
  void PrefetchLookup(Addr addr) const { index_.Prefetch(XPLineBase(addr)); }

  size_t occupied_entries() const { return keys_.size(); }
  size_t capacity_entries() const { return capacity_entries_; }

 private:
  struct Entry {
    uint8_t dirty_mask = 0;   // cachelines holding unwritten-to-media data
    uint8_t valid_mask = 0;   // cachelines whose data the buffer holds
    // Per-cacheline apply times: a persist's visibility is line-granular
    // (reads/persists of one line never wait on a neighbour's apply).
    Cycles visible_at[kLinesPerXPLine] = {0, 0, 0, 0};
    bool clean = false;       // fully written back but still resident
  };

  bool IsPartial(const Entry& e) const { return e.dirty_mask != 0 && e.dirty_mask != 0x0F; }

  size_t CountPartial() const;
  void EvictOne(std::vector<WritebackRequest>& writebacks);
  void EnsureRoom(std::vector<WritebackRequest>& writebacks);
  // Evicts the entry at dense position `pos` (all victim scans already know
  // the position, so no index lookup is needed to translate a key back).
  void EvictVictimAt(size_t pos, std::vector<WritebackRequest>& writebacks);
  // Appends a fresh entry for `xpline` and indexes it.
  void Append(Addr xpline, const Entry& e);
  // Tracks partial_count_ across a dirty-mask change.
  void NotePartialChange(bool was_partial, bool is_partial) {
    if (was_partial != is_partial) {
      partial_count_ += is_partial ? 1 : -1;
    }
  }

  WriteBufferConfig config_;
  Counters* counters_;
  Rng rng_;

  size_t capacity_entries_;
  size_t partial_capacity_;
  Cycles last_periodic_tick_ = 0;

  size_t PickRandomishVictimPos();

  // Dense, insertion-ordered storage: keys_[i] owns entries_[i]. Every
  // ordered walk (periodic write-back, oldest-first/clean-first victim scans,
  // drain) iterates these vectors, so eviction and write-back sequences are a
  // function of operation history alone — never of hash-table order. The
  // flat map only accelerates point lookups (Addr -> dense position).
  std::vector<Addr> keys_;
  std::vector<Entry> entries_;
  FlatMap<Addr, uint32_t> index_;
  // Live count of partially-written resident XPLines (== CountPartial()).
  ptrdiff_t partial_count_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_BUFFERS_WRITE_BUFFER_H_
