// Persistence-barrier helpers: the idioms persistent programs use to make
// stores durable on ADR platforms (paper §2.1). A persistence barrier is one
// or more cacheline flushes (or nt-stores) followed by a store fence; the
// fence's return guarantees WPQ acceptance (= persistence), not completion.

#ifndef SRC_PERSIST_BARRIER_H_
#define SRC_PERSIST_BARRIER_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/cpu/thread_context.h"

namespace pmemsim {

// How a store becomes persistent.
enum class PersistMode : uint8_t {
  kClwbSfence,     // store, clwb, sfence
  kClwbMfence,     // store, clwb, mfence
  kNtStoreSfence,  // nt-store, sfence
  kNtStoreMfence,  // nt-store, mfence
};

// Ordering discipline across a sequence of updates.
enum class Persistency : uint8_t {
  kStrict,   // a barrier after every update
  kRelaxed,  // flushes issued unfenced; one fence at the end of the batch
  kEpoch,    // a barrier every epoch of updates (between strict and relaxed)
};

// Issues clwb for every cacheline covering [addr, addr+len).
void FlushRange(ThreadContext& ctx, Addr addr, uint64_t len);

// FlushRange + sfence: the canonical persistence barrier.
void Persist(ThreadContext& ctx, Addr addr, uint64_t len);

// The mode as bench rows spell it: "clwb+sfence", "clwb+mfence",
// "nt-store+sfence" or "nt-store+mfence".
const char* PersistModeName(PersistMode mode);

// Stores a 64-bit value and makes it durable per `mode`: StoreAndFlush64
// (store + clwb, or nt-store), then PersistFence (sfence or mfence). Relaxed
// and epoch persistency call the halves, one fence closing several stores.
void PersistentStore64(ThreadContext& ctx, Addr addr, uint64_t value, PersistMode mode);
void StoreAndFlush64(ThreadContext& ctx, Addr addr, uint64_t value, PersistMode mode);
void PersistFence(ThreadContext& ctx, PersistMode mode);

// True if the mode flushes via clwb (vs nt-store).
constexpr bool UsesClwb(PersistMode mode) {
  return mode == PersistMode::kClwbSfence || mode == PersistMode::kClwbMfence;
}

constexpr bool UsesMfence(PersistMode mode) {
  return mode == PersistMode::kClwbMfence || mode == PersistMode::kNtStoreMfence;
}

}  // namespace pmemsim

#endif  // SRC_PERSIST_BARRIER_H_
