#include "src/imc/memory_controller.h"

#include <string>

#include "src/trace/registry.h"

namespace pmemsim {

MemoryController::MemoryController(const PlatformConfig& platform, CounterRegistry* registry,
                                   uint32_t optane_dimm_count)
    : config_(platform.imc), counters_(registry->CreateScope("imc")) {
  const uint32_t n = optane_dimm_count ? optane_dimm_count : kTestbedOptaneDimms;
  for (uint32_t i = 0; i < n; ++i) {
    const std::string scope_name = "optane_dimm" + std::to_string(i);
    Counters* scope = registry->CreateScope(scope_name);
    optane_scope_counters_.push_back(scope);
    optane_dimms_.push_back(
        std::make_unique<OptaneDimm>(platform.optane, scope, 0xD1337 + i * 0x9E37));
    optane_wpqs_.push_back(std::make_unique<Wpq>(config_.wpq, scope));
  }
  Counters* dram_scope = registry->CreateScope("dram");
  dram_scope_counters_ = dram_scope;
  dram_dimm_ = std::make_unique<DramDimm>(platform.dram, dram_scope);
  dram_wpq_ = std::make_unique<Wpq>(config_.wpq, dram_scope);
  if (optane_dimms_.size() == 1) {
    sole_optane_ = optane_dimms_[0].get();
  }
}

size_t MemoryController::OptaneIndexFor(Addr addr) const {
  return static_cast<size_t>((addr / config_.interleave_granularity) % optane_dimms_.size());
}

void MemoryController::Read(Addr addr, Cycles now, NodeId requester, bool ordered,
                            AccessRecord* out) {
  const Cycles hop = requester == home_node_ ? 0 : config_.numa_hop_latency;
  const Cycles issue = now + hop + config_.read_overhead;

  if (addr >= kDramAddressBase) {
    dram_dimm_->Read(addr, issue, ordered, out);
  } else {
    OptaneDimm* dimm =
        sole_optane_ != nullptr ? sole_optane_ : optane_dimms_[OptaneIndexFor(addr)].get();
    dimm->Read(addr, issue, ordered, out);
  }
  out->complete_at += hop;
  // The iMC's own share: overhead + both hop crossings (the DIMM's stages
  // already sum to its span, so the whole record sums to complete_at - now).
  out->mem.imc_transit = 2 * hop + config_.read_overhead;
}

McWriteResult MemoryController::Write(Addr addr, Cycles now, NodeId requester) {
  const Cycles hop = requester == home_node_ ? 0 : config_.numa_hop_latency;
  const Cycles arrival = now + hop;
  McWriteResult result;

  if (KindOf(addr) == MemoryKind::kDram) {
    // DRAM never back-pressures the WPQ: it has no media write ports to fill.
    const Wpq::AcceptResult accept = dram_wpq_->Accept(arrival);
    result.accepted_at = accept.accepted_at + hop;
    result.visible_at = dram_dimm_->Write(addr, accept.drained_at).visible_at;
    return result;
  }

  const size_t i = OptaneIndexFor(addr);
  Wpq& wpq = *optane_wpqs_[i];
  OptaneDimm& dimm = *optane_dimms_[i];
  Cycles effective_arrival = arrival;
  const Cycles same_line_until = dimm.SameLineStallUntil(addr);
  if (same_line_until > effective_arrival) {
    counters_->wpq_stall_cycles += same_line_until - effective_arrival;
    effective_arrival = same_line_until;
  }
  const Wpq::AcceptResult accept = wpq.Accept(effective_arrival);
  const DimmWriteResult w = dimm.Write(addr, accept.drained_at);
  if (w.backpressure_until > accept.drained_at) {
    wpq.DelayDrain(w.backpressure_until);
  }
  // The store's persist point includes the interconnect crossing.
  result.accepted_at = accept.accepted_at + hop;
  result.visible_at = w.visible_at;
  if (persist_observer_ != nullptr) {
    persist_observer_->OnPmWrite(CacheLineBase(addr), now, result.accepted_at, accept.drained_at);
  }
  return result;
}

void MemoryController::Reset() {
  for (auto& d : optane_dimms_) {
    d->Reset();
  }
  for (auto& q : optane_wpqs_) {
    q->Reset();
  }
  dram_dimm_->Reset();
  dram_wpq_->Reset();
}

}  // namespace pmemsim
