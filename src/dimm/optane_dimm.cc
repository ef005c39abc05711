#include "src/dimm/optane_dimm.h"

#include <algorithm>

#include "src/common/check.h"

namespace pmemsim {

OptaneDimm::OptaneDimm(const OptaneDimmConfig& config, Counters* counters, uint64_t rng_seed)
    : read_impl_(config.write_buffer.periodic_full_writeback ? &OptaneDimm::ReadImpl<true>
                                                             : &OptaneDimm::ReadImpl<false>),
      config_(config),
      counters_(counters),
      ait_(config.ait_cache_coverage_bytes, config.ait_miss_penalty, counters),
      media_(config.media_read_ports, config.media_read_latency, config.media_write_ports,
             config.media_write_latency, counters),
      read_buffer_(config.read_buffer_bytes, counters, config.read_buffer_eviction,
                   config.read_buffer_exclusive),
      write_buffer_(config.write_buffer, counters, rng_seed) {
  PMEMSIM_CHECK(counters_ != nullptr);
}

template <bool kPeriodicWb>
void OptaneDimm::ReadImpl(Addr addr, Cycles now, bool ordered, AccessRecord* out) {
  const Addr line = CacheLineBase(addr);
  counters_->imc_read_bytes += kCacheLineSize;

  if constexpr (kPeriodicWb) {
    // Let the periodic write-back clock advance even on pure-read phases.
    if (write_buffer_.TickDue(now)) {
      writeback_scratch_.clear();
      write_buffer_.Tick(now, writeback_scratch_);
      if (!writeback_scratch_.empty()) {
        PerformWritebacks(writeback_scratch_, now);
      }
    }
  }

  // One write-buffer probe answers steps 1 and 2.
  const WriteBuffer::ReadSnoopResult snoop = write_buffer_.ReadSnoop(line);

  // 1. Freshest data may still be in the write buffer. DDR-T reads snoop it;
  //    a read to a line whose persist is in flight stalls until the write is
  //    applied (the read-after-persist effect, paper §3.5).
  if (snoop.holds_line) {
    Cycles visible = snoop.visible_at;
    if (!ordered && visible > now) {
      // Loads not ordered by a full fence issue early in the out-of-order
      // window, hiding part of the apply pipeline.
      visible =
          visible > config_.unordered_read_overlap ? visible - config_.unordered_read_overlap : 0;
    }
    Cycles start = now;
    if (visible > now) {
      out->stalled_for = visible - now;
      counters_->rap_stall_cycles += out->stalled_for;
      ++counters_->rap_stalled_loads;
      start = visible;
    }
    out->complete_at = start + config_.buffer_hit_latency;
    out->mem.rap_stall = out->stalled_for;
    out->mem.buffer = config_.buffer_hit_latency;
    return;
  }

  // 2. The XPLine may be write-buffered with this particular line not yet
  //    valid: the read triggers the deferred read-modify-write merge — the
  //    whole XPLine is fetched from media into the *write* buffer (which,
  //    unlike the read buffer, is not exclusive; §3.3's transition test).
  if (snoop.contains_xpline) {
    const Cycles ait_cost = ait_.Access(line);
    const Cycles media_done = media_.ReadXPLine(line, now + ait_cost);
    ++counters_->rmw_media_reads;
    write_buffer_.AbsorbFill(line);
    out->complete_at = media_done + config_.buffer_hit_latency;
    out->mem.ait = ait_cost;
    out->mem.media = media_done - (now + ait_cost);
    out->mem.buffer = config_.buffer_hit_latency;
    return;
  }

  // 3. On-DIMM read buffer (exclusive: the hit consumes the line).
  if (read_buffer_.ConsumeLine(line)) {
    out->complete_at = now + config_.buffer_hit_latency;
    out->mem.buffer = config_.buffer_hit_latency;
    return;
  }

  // 4. Media fetch of the whole XPLine, via the AIT, filling the read buffer.
  //    The requested line is handed straight to the requester (consuming its
  //    valid bit under exclusivity) without counting a buffer hit — the miss
  //    was already recorded by the failed ConsumeLine in step 3.
  const Cycles ait_cost = ait_.Access(line);
  const Cycles media_done = media_.ReadXPLine(line, now + ait_cost);
  read_buffer_.FillForDelivery(line);
  out->complete_at = media_done + config_.buffer_hit_latency;
  out->mem.ait = ait_cost;
  out->mem.media = media_done - (now + ait_cost);
  out->mem.buffer = config_.buffer_hit_latency;
}

template void OptaneDimm::ReadImpl<true>(Addr, Cycles, bool, AccessRecord*);
template void OptaneDimm::ReadImpl<false>(Addr, Cycles, bool, AccessRecord*);

DimmWriteResult OptaneDimm::Write(Addr addr, Cycles now) {
  const Addr line = CacheLineBase(addr);
  counters_->imc_write_bytes += kCacheLineSize;

  const Cycles visible_at = now + config_.write_visible_delay;
  writeback_scratch_.clear();

  // §3.3: a write to an XPLine resident in the read buffer (and not already
  // write-buffered) updates it in place; the XPLine transitions to the write
  // buffer's management. Probing the (often empty) read buffer first lets the
  // common case fall through to Write() without a separate occupancy lookup.
  if (read_buffer_.ContainsXPLine(line) && !write_buffer_.ContainsXPLine(line)) {
    read_buffer_.Remove(line);
    write_buffer_.InstallTransition(line, now, visible_at, writeback_scratch_);
  } else {
    write_buffer_.Write(line, now, visible_at, writeback_scratch_);
  }

  DimmWriteResult result;
  result.visible_at = visible_at;
  if (!writeback_scratch_.empty()) {
    PerformWritebacks(writeback_scratch_, now);
    bool evicted = false;
    for (const WritebackRequest& req : writeback_scratch_) {
      evicted |= !req.periodic;
    }
    if (evicted) {
      // Media write ports are the drain bottleneck once the buffer overflows.
      result.backpressure_until = media_.NextWriteSlot();
    }
  }
  return result;
}

void OptaneDimm::PerformWritebacks(const std::vector<WritebackRequest>& requests, Cycles now) {
  for (const WritebackRequest& req : requests) {
    Cycles t = now + ait_.Access(req.xpline);
    if (req.needs_rmw) {
      // Missing cachelines must be fetched from media before programming.
      ++counters_->rmw_media_reads;
      t = media_.ReadXPLine(req.xpline, t);
    }
    media_.WriteXPLine(req.xpline, t);
  }
}

void OptaneDimm::Reset() {
  media_.Reset();
  read_buffer_.Clear();
  write_buffer_.Clear();
}

}  // namespace pmemsim
