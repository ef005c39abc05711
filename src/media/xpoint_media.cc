#include "src/media/xpoint_media.h"

#include <algorithm>

#include "src/common/check.h"

namespace pmemsim {

PortPool::PortPool(uint32_t ports, Cycles service_latency)
    : busy_until_(ports, 0), service_latency_(service_latency) {
  PMEMSIM_CHECK(ports > 0);
}

size_t PortPool::PickPort() const {
  size_t best = 0;
  for (size_t i = 1; i < busy_until_.size(); ++i) {
    if (busy_until_[i] < busy_until_[best]) {
      best = i;
    }
  }
  return best;
}

Cycles PortPool::Schedule(Cycles now) {
  const size_t p = PickPort();
  const Cycles start = std::max(now, busy_until_[p]);
  busy_until_[p] = start + service_latency_;
  return busy_until_[p];
}

Cycles PortPool::Schedule(Cycles now, Cycles completion_latency) {
  const size_t p = PickPort();
  const Cycles start = std::max(now, busy_until_[p]);
  busy_until_[p] = start + service_latency_;
  return start + completion_latency;
}

Cycles PortPool::EarliestFree() const {
  Cycles best = busy_until_[0];
  for (const Cycles b : busy_until_) {
    best = std::min(best, b);
  }
  return best;
}

void PortPool::Reset() { std::fill(busy_until_.begin(), busy_until_.end(), 0); }

XpointMedia::XpointMedia(uint32_t read_ports, Cycles read_latency, uint32_t write_ports,
                         Cycles write_latency, Counters* counters)
    : read_ports_(read_ports, read_latency),
      write_ports_(write_ports, write_latency),
      counters_(counters) {
  PMEMSIM_CHECK(counters_ != nullptr);
}

Cycles XpointMedia::ReadXPLine(Addr /*addr*/, Cycles now) {
  counters_->media_read_bytes += kXPLineSize;
  return read_ports_.Schedule(now);
}

Cycles XpointMedia::WriteXPLine(Addr /*addr*/, Cycles now) {
  counters_->media_write_bytes += kXPLineSize;
  return write_ports_.Schedule(now);
}

void XpointMedia::Reset() {
  read_ports_.Reset();
  write_ports_.Reset();
}

}  // namespace pmemsim
