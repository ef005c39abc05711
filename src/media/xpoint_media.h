// 3D-Xpoint media access model: fixed 256 B (XPLine) transfer granularity,
// a small number of read ports (reads scale to a few GB/s) and fewer write
// ports (writes saturate at low concurrency — paper §2.2 finding 1).
//
// Each port is a busy-until scheduler: a request issued at time t on the
// earliest-free port starts at max(t, port_free) and occupies the port for the
// service latency. This yields both per-request latency under contention and
// an aggregate bandwidth ceiling without a full DES.

#ifndef SRC_MEDIA_XPOINT_MEDIA_H_
#define SRC_MEDIA_XPOINT_MEDIA_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/trace/counters.h"

namespace pmemsim {

// A pool of identical service ports.
class PortPool {
 public:
  PortPool(uint32_t ports, Cycles service_latency);

  // Schedules a request arriving at `now`; returns its completion time.
  Cycles Schedule(Cycles now);

  // Pipelined variant: the port is occupied for the pool's service latency but
  // the request completes `completion_latency` after it starts (service acts
  // as an issue-bandwidth limit, completion as end-to-end latency).
  Cycles Schedule(Cycles now, Cycles completion_latency);

  // Earliest time any port frees up.
  Cycles EarliestFree() const;

  void Reset();

  Cycles service_latency() const { return service_latency_; }

 private:
  size_t PickPort() const;

  std::vector<Cycles> busy_until_;
  Cycles service_latency_;
};

class XpointMedia {
 public:
  XpointMedia(uint32_t read_ports, Cycles read_latency, uint32_t write_ports,
              Cycles write_latency, Counters* counters);

  // Reads the XPLine containing `addr` from media. Returns completion time.
  Cycles ReadXPLine(Addr addr, Cycles now);

  // Programs the XPLine containing `addr` to media. Returns completion time.
  Cycles WriteXPLine(Addr addr, Cycles now);

  // When the write ports could accept a new request (back-pressure signal for
  // the write-buffer drain).
  Cycles NextWriteSlot() const { return write_ports_.EarliestFree(); }

  void Reset();

 private:
  PortPool read_ports_;
  PortPool write_ports_;
  Counters* counters_;
};

}  // namespace pmemsim

#endif  // SRC_MEDIA_XPOINT_MEDIA_H_
