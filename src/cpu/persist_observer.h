// Observer interface for the persist path: the store/fence path of every
// ThreadContext and the Optane writes of the MemoryController.
//
// The crash-consistency subsystem (src/crash) implements this to maintain a
// shadow durable image: OnStore fires after a cached store's data lands in
// the backing store (the line is dirty in the volatile caches from this
// moment), OnFence fires after a fence completes (every outstanding persist
// of the thread has been WPQ-accepted by then), and OnPmWrite fires for every
// persist-path write reaching an Optane WPQ (clwb write-backs, nt-stores,
// dirty evictions). Together they see every transition a byte makes on its
// way to the ADR domain. System::SetPersistObserver installs one observer on
// all of them.
//
// Observers may throw (the crash injector aborts a run by throwing from a
// hook); the simulator makes no attempt to keep going afterwards.

#ifndef SRC_CPU_PERSIST_OBSERVER_H_
#define SRC_CPU_PERSIST_OBSERVER_H_

#include <cstdint>

#include "src/common/types.h"

namespace pmemsim {

class PersistObserver {
 public:
  virtual ~PersistObserver() = default;

  // A cached store of `len` bytes at `addr` retired at `now` (data is in the
  // caches and the backing store, but not yet on the persist path).
  virtual void OnStore(Addr addr, uint64_t len, Cycles now) = 0;

  // An sfence/mfence completed at `now`: every persist the thread issued
  // before the fence has been accepted into the ADR domain.
  virtual void OnFence(Cycles now) = 0;

  // A cacheline write reached an Optane WPQ: `line` is its base, `issue` the
  // cycle it left the core, `accepted_at` its ADR persist point, `drained_at`
  // when it lands in media.
  virtual void OnPmWrite(Addr line, Cycles issue, Cycles accepted_at, Cycles drained_at) = 0;
};

}  // namespace pmemsim

#endif  // SRC_CPU_PERSIST_OBSERVER_H_
