// The §3.6 workload: a circular linked list of 256 B, XPLine-aligned elements
// traversed by pointer chasing, updating one cacheline per element.
//
//   typedef struct working_set_unit {
//     struct working_set_unit *next;
//     uint64_t pad[NPAD];
//   } working_set_unit_t;
//
// The next pointer lives in the element's first cacheline; the updated pad
// word lives in its third, so persisting the data never invalidates cached
// pointers (as in the paper's benchmark).

#ifndef SRC_DATASTORES_CHASE_LIST_H_
#define SRC_DATASTORES_CHASE_LIST_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/core/system.h"
#include "src/cpu/thread_context.h"
#include "src/persist/barrier.h"

namespace pmemsim {

class ChaseList {
 public:
  static constexpr uint64_t kElementSize = kXPLineSize;
  static constexpr uint64_t kPadOffset = 2 * kCacheLineSize;  // updated cacheline

  // Builds a circular list over `region` (construction is untimed). With
  // `sequential`, element i points to element i+1; otherwise the cycle order
  // is a random permutation.
  ChaseList(System* system, PmRegion region, bool sequential, uint64_t seed);

  uint64_t size() const { return count_; }
  Addr head() const { return order_.front(); }
  // Element addresses in traversal order (used by the pure-write benchmark,
  // which keeps addresses in DRAM and never reads PM).
  const std::vector<Addr>& order() const { return order_; }

  // Traversals resume where the previous call stopped (the list is circular),
  // so partial measurement passes still walk cold elements.

  // Full traversal: chase pointers, update one cacheline per element, persist
  // per `mode`/`persistency`. `epoch_len` applies to Persistency::kEpoch
  // (a fence every epoch_len elements). Returns cycles consumed.
  Cycles TraverseUpdate(ThreadContext& ctx, uint64_t elements, PersistMode mode,
                        Persistency persistency, uint64_t epoch_len = 8);

  // Pure read: pointer chase only.
  Cycles TraverseRead(ThreadContext& ctx, uint64_t elements);

  // Pure write: iterate the DRAM-held address list, store + persist the pad
  // cacheline of each element without reading PM.
  Cycles PureWrite(ThreadContext& ctx, uint64_t elements, PersistMode mode,
                   Persistency persistency, uint64_t epoch_len = 8);

 private:
  System* system_;
  PmRegion region_;
  uint64_t count_;
  std::vector<Addr> order_;
  Addr cursor_ = 0;
  uint64_t cursor_index_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_DATASTORES_CHASE_LIST_H_
