// Integrated memory controller: routes cacheline requests from the CPU to the
// DIMM population, maintains per-DIMM write pending queues (the ADR domain's
// persist point), applies the PM interleave and the NUMA interconnect hop.
//
// Address map: Optane (App Direct) regions live below kDramAddressBase and
// interleave across the configured DIMM count at 4 KB granularity; DRAM
// regions live at/above kDramAddressBase and route to the DRAM model.

#ifndef SRC_IMC_MEMORY_CONTROLLER_H_
#define SRC_IMC_MEMORY_CONTROLLER_H_

#include <memory>
#include <vector>

#include "src/common/access_record.h"
#include "src/common/config.h"
#include "src/common/types.h"
#include "src/cpu/persist_observer.h"
#include "src/dimm/dram_dimm.h"
#include "src/dimm/optane_dimm.h"
#include "src/imc/wpq.h"
#include "src/trace/counters.h"

namespace pmemsim {

// All DRAM addresses have this bit set; PM addresses do not.
inline constexpr Addr kDramAddressBase = 1ull << 46;

struct McWriteResult {
  Cycles accepted_at = 0;  // in the ADR domain: this is the persist point
  Cycles visible_at = 0;   // when a subsequent read sees the value
};

class CounterRegistry;

class MemoryController {
 public:
  // `optane_dimm_count` of 0 means kTestbedOptaneDimms (the paper evaluates
  // both a single non-interleaved DIMM and the testbed's interleaved set).
  //
  // Scoped form: creates one counter scope per Optane DIMM ("optane_dimmN",
  // shared with its WPQ), one for the DRAM channel ("dram"), and one for the
  // iMC's own stalls ("imc") — the per-DIMM `ipmwatch` view.
  MemoryController(const PlatformConfig& platform, CounterRegistry* registry,
                   uint32_t optane_dimm_count = 0);

  // 64 B cacheline read. `ordered` marks loads executing under a full fence.
  // Writes complete_at / stalled_for / mem of `out` (which must arrive
  // value-initialized): the DIMM fills its stages and the iMC adds its
  // imc_transit share, so the populated stages sum to complete_at - now.
  // Routing uses typed DIMM pointers, with a single-DIMM fast path that skips
  // the interleave arithmetic.
  void Read(Addr addr, Cycles now, NodeId requester, bool ordered, AccessRecord* out);

  // 64 B persist-path write (clwb write-back, nt-store, or dirty eviction).
  // Only Optane writes take the same-line persist stall and reach the
  // persist hook.
  McWriteResult Write(Addr addr, Cycles now, NodeId requester);

  static MemoryKind KindOf(Addr addr) {
    return addr >= kDramAddressBase ? MemoryKind::kDram : MemoryKind::kOptane;
  }

  // Host-side hint: warm the target DIMM's translation state for a read that
  // may miss the whole cache hierarchy. No simulated effect.
  void PrefetchRead(Addr addr) const {
    if (KindOf(addr) != MemoryKind::kDram) {
      OptaneDimm* dimm =
          sole_optane_ != nullptr ? sole_optane_ : optane_dimms_[OptaneIndexFor(addr)].get();
      dimm->PrefetchRead(addr);
    }
  }

  // The observer told of every persist-path write that reaches an Optane WPQ
  // (PersistObserver::OnPmWrite; DRAM writes are not reported). System's
  // SetPersistObserver installs it here and on every thread; null clears it.
  void SetPersistObserver(PersistObserver* observer) { persist_observer_ = observer; }

  void Reset();

  size_t optane_dimm_count() const { return optane_dimms_.size(); }
  OptaneDimm& optane_dimm(size_t i) { return *optane_dimms_[i]; }
  DramDimm& dram_dimm() { return *dram_dimm_; }
  Wpq& optane_wpq(size_t i) { return *optane_wpqs_[i]; }

  // Per-scope views.
  const Counters& optane_dimm_counters(size_t i) const { return *optane_scope_counters_[i]; }
  const Counters& dram_counters() const { return *dram_scope_counters_; }

 private:
  size_t OptaneIndexFor(Addr addr) const;

  ImcConfig config_;
  Counters* counters_;
  NodeId home_node_ = 0;  // all DIMMs sit on socket 0, as on the testbeds

  std::vector<std::unique_ptr<OptaneDimm>> optane_dimms_;
  std::vector<std::unique_ptr<Wpq>> optane_wpqs_;  // one per Optane DIMM
  std::unique_ptr<DramDimm> dram_dimm_;
  std::unique_ptr<Wpq> dram_wpq_;
  // Non-interleaved fast path: with one Optane DIMM every PM address routes
  // to it, so the read path skips OptaneIndexFor's divide. Null otherwise.
  OptaneDimm* sole_optane_ = nullptr;

  std::vector<const Counters*> optane_scope_counters_;
  const Counters* dram_scope_counters_ = nullptr;

  PersistObserver* persist_observer_ = nullptr;
};

}  // namespace pmemsim

#endif  // SRC_IMC_MEMORY_CONTROLLER_H_
