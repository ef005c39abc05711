// Optane DCPMM DIMM model: 3D-Xpoint media behind separate on-DIMM read and
// write buffers, with an AIT translation cache and an asynchronous write
// pipeline. Composition of the structures the paper infers in §3.1-§3.5.
//
// Read path:  write buffer (freshest data; may stall on in-flight persist)
//             -> read buffer (exclusive, FIFO)
//             -> AIT + media XPLine fetch (fills the read buffer).
// Write path: merge into write buffer / transition from read buffer /
//             allocate entry (evictions write back to media, partial lines
//             via RMW). Visibility lags acceptance by write_visible_delay.

#ifndef SRC_DIMM_OPTANE_DIMM_H_
#define SRC_DIMM_OPTANE_DIMM_H_

#include <vector>

#include "src/buffers/read_buffer.h"
#include "src/buffers/write_buffer.h"
#include "src/common/access_record.h"
#include "src/common/config.h"
#include "src/common/types.h"
#include "src/dimm/dimm.h"
#include "src/media/ait.h"
#include "src/media/xpoint_media.h"
#include "src/trace/counters.h"

namespace pmemsim {

class OptaneDimm {
 public:
  OptaneDimm(const OptaneDimmConfig& config, Counters* counters, uint64_t rng_seed = 0xD1337);

  // Serves a 64 B read arriving at `now`: fills complete_at / stalled_for /
  // mem of `out` (which must arrive value-initialized). `ordered` marks loads
  // executing under a full fence: their read-after-persist stalls are fully
  // exposed, while unordered loads overlap part of the stall with other work
  // in the out-of-order window. Dispatches through a member-function pointer
  // resolved once at construction to the generation-specialized path: G1
  // (periodic full write-back) checks the write-back clock per read, G2/eADR
  // skips that work entirely.
  void Read(Addr line_addr, Cycles now, bool ordered, AccessRecord* out) {
    (this->*read_impl_)(line_addr, now, ordered, out);
  }

  // Accepts a 64 B write draining from the WPQ at `now`.
  DimmWriteResult Write(Addr line_addr, Cycles now);

  // Earliest time a new persist to the line may be accepted (same-address
  // write ordering); 0 = no constraint.
  Cycles SameLineStallUntil(Addr line_addr) const {
    if (!config_.same_line_flush_stall) {
      return 0;
    }
    const Cycles visible = write_buffer_.VisibleAt(line_addr);
    if (visible == 0) {
      return 0;
    }
    const Cycles drained = visible > config_.write_visible_delay
                               ? visible - config_.write_visible_delay
                               : 0;
    return drained + config_.same_line_stall_window;
  }

  // Drops all buffered state and port schedules (fresh benchmark runs).
  void Reset();

  // Host-side hint: warm the AIT translation chain a media fetch for this
  // line would walk, plus the read/write-buffer index buckets the snoop will
  // probe. Issued at access start so the fetches overlap the cache hierarchy
  // walk. No simulated effect.
  void PrefetchRead(Addr line_addr) const {
    ait_.Prefetch(line_addr);
    read_buffer_.PrefetchLookup(line_addr);
  }

  // Test/introspection hooks.
  const ReadBuffer& read_buffer() const { return read_buffer_; }
  const WriteBuffer& write_buffer() const { return write_buffer_; }
  const OptaneDimmConfig& config() const { return config_; }

 private:
  // Read-path body, specialized on whether this generation runs the periodic
  // full-XPLine write-back (true on G1, false on G2 and eADR presets).
  template <bool kPeriodicWb>
  void ReadImpl(Addr line_addr, Cycles now, bool ordered, AccessRecord* out);

  void PerformWritebacks(const std::vector<WritebackRequest>& requests, Cycles now);

  using ReadImplFn = void (OptaneDimm::*)(Addr, Cycles, bool, AccessRecord*);
  ReadImplFn read_impl_;  // bound in the constructor from the config

  OptaneDimmConfig config_;
  Counters* counters_;
  Ait ait_;
  XpointMedia media_;
  ReadBuffer read_buffer_;
  WriteBuffer write_buffer_;
  std::vector<WritebackRequest> writeback_scratch_;
};

}  // namespace pmemsim

#endif  // SRC_DIMM_OPTANE_DIMM_H_
