#include "src/imc/wpq.h"

#include <algorithm>

#include "src/common/check.h"

namespace pmemsim {

Wpq::Wpq(const WpqConfig& config, Counters* counters) : config_(config), counters_(counters) {
  PMEMSIM_CHECK(config.entries > 0);
  PMEMSIM_CHECK(counters_ != nullptr);
}

Wpq::AcceptResult Wpq::Accept(Cycles now) {
  // Retire entries that have drained by now.
  while (!inflight_.empty() && inflight_.front() <= now) {
    inflight_.pop_front();
  }

  Cycles start = now;
  if (inflight_.size() >= config_.entries) {
    // Queue full: the store waits for the oldest entry to leave. The entry
    // retires at its drain time (not now): popping it early would make
    // OccupancyAt and the sampler's wpq_occupancy gauge under-report during the stall.
    const Cycles wait_until = inflight_.front();
    counters_->wpq_stall_cycles += wait_until - start;
    start = wait_until;
    while (!inflight_.empty() && inflight_.front() <= start) {
      inflight_.pop_front();
    }
  }

  AcceptResult r;
  r.accepted_at = start + config_.accept_latency;

  const Cycles drain_start = std::max(r.accepted_at, drain_free_at_);
  r.drained_at = drain_start + config_.drain_latency;
  drain_free_at_ = r.drained_at;
  inflight_.push_back(r.drained_at);
  return r;
}

void Wpq::DelayDrain(Cycles until) { drain_free_at_ = std::max(drain_free_at_, until); }

size_t Wpq::OccupancyAt(Cycles now) const {
  size_t n = 0;
  for (const Cycles t : inflight_) {
    if (t > now) {
      ++n;
    }
  }
  return n;
}

void Wpq::Reset() {
  inflight_.clear();
  drain_free_at_ = 0;
}

}  // namespace pmemsim
