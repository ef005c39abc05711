#include "src/dimm/dram_dimm.h"

#include "src/common/check.h"

namespace pmemsim {

DramDimm::DramDimm(const DramConfig& config, Counters* counters)
    : config_(config), counters_(counters), ports_(config.ports, config.port_service) {
  PMEMSIM_CHECK(counters_ != nullptr);
}

void DramDimm::Read(Addr addr, Cycles now, bool ordered, AccessRecord* out) {
  const Addr line = CacheLineBase(addr);
  counters_->dram_read_bytes += kCacheLineSize;

  Cycles start = now;
  if (const Cycles* pending = pending_visible_.Find(line)) {
    Cycles visible = *pending;
    if (!ordered && visible > now) {
      visible =
          visible > config_.unordered_read_overlap ? visible - config_.unordered_read_overlap : 0;
    }
    if (visible > now) {
      out->stalled_for = visible - now;
      counters_->rap_stall_cycles += out->stalled_for;
      ++counters_->rap_stalled_loads;
      start = visible;
    }
    if (*pending <= now) {
      pending_visible_.Erase(line);
    }
  }
  out->complete_at = ports_.Schedule(start, config_.load_latency);
  out->mem.rap_stall = out->stalled_for;
  out->mem.dram = out->complete_at - start;
}

DimmWriteResult DramDimm::Write(Addr addr, Cycles now) {
  const Addr line = CacheLineBase(addr);
  counters_->dram_write_bytes += kCacheLineSize;
  const Cycles visible_at = now + config_.write_visible_delay;
  pending_visible_[line] = visible_at;
  MaybeSweep(now);
  return {visible_at, 0};
}

void DramDimm::MaybeSweep(Cycles now) {
  if (pending_visible_.size() < 65536) {
    return;
  }
  pending_visible_.EraseIf([now](Addr, Cycles visible) { return visible <= now; });
}

void DramDimm::Reset() {
  ports_.Reset();
  pending_visible_.Clear();
}

}  // namespace pmemsim
