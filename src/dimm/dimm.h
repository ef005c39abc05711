// The write result both DIMM models (OptaneDimm, DramDimm) hand back to the
// integrated memory controller when a 64 B cacheline drains from the WPQ.
// Reads have no result struct of their own: they fill the shared in-place
// AccessRecord (src/common/access_record.h).

#ifndef SRC_DIMM_DIMM_H_
#define SRC_DIMM_DIMM_H_

#include "src/common/types.h"

namespace pmemsim {

struct DimmWriteResult {
  // When the written value becomes readable on the DIMM. DDR-T writes are
  // asynchronous: acceptance is persistence, visibility lags (paper §3.5).
  Cycles visible_at = 0;
  // Back-pressure signal: the earliest time the DIMM wants the next write
  // (non-zero when absorbing this write forced media evictions and the media
  // write ports are saturated). The WPQ delays subsequent drains until then.
  Cycles backpressure_until = 0;
};

}  // namespace pmemsim

#endif  // SRC_DIMM_DIMM_H_
