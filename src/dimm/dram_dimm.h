// Conventional DRAM DIMM model: flat load latency behind a generous port
// pool, synchronous DDR4-style writes with a short visibility lag. Serves as
// the paper's DRAM baseline (Fig. 7 b/d/f/h, Fig. 10 c/d).

#ifndef SRC_DIMM_DRAM_DIMM_H_
#define SRC_DIMM_DRAM_DIMM_H_

#include "src/common/access_record.h"
#include "src/common/config.h"
#include "src/common/flat_map.h"
#include "src/dimm/dimm.h"
#include "src/media/xpoint_media.h"

namespace pmemsim {

// DDR4 merges same-line writes, so unlike OptaneDimm there is no same-line
// persist stall for the iMC to apply.
class DramDimm {
 public:
  DramDimm(const DramConfig& config, Counters* counters);

  // Serves a 64 B read arriving at `now`: fills complete_at / stalled_for /
  // mem of `out` (which must arrive value-initialized). `ordered` marks loads
  // executing under a full fence, whose read-after-persist stall is fully
  // exposed.
  void Read(Addr line_addr, Cycles now, bool ordered, AccessRecord* out);

  // Accepts a 64 B write draining from the WPQ at `now`.
  DimmWriteResult Write(Addr line_addr, Cycles now);

  // Drops port schedules and pending visibility (fresh benchmark runs).
  void Reset();

 private:
  void MaybeSweep(Cycles now);

  DramConfig config_;
  Counters* counters_;
  PortPool ports_;

  // Lines with a write still propagating (read-after-persist on DRAM is mild
  // but measurable: Fig. 7 b/d). Swept lazily to stay bounded.
  FlatMap<Addr, Cycles> pending_visible_;
};

}  // namespace pmemsim

#endif  // SRC_DIMM_DRAM_DIMM_H_
