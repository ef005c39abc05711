// A libpmem-flavoured convenience layer over the simulator, for code that
// wants to read like PMDK-era persistent-memory programming:
//
//   PmemRegion file = PmemMapFile(system, MiB(64));
//   PmemMemcpyPersist(cpu, file.base, buf, len);
//   ...
//   PmemFlush(cpu, addr, len);
//   PmemDrain(cpu);
//
// Semantics follow libpmem on an ADR platform: persist = flush + drain
// (PmemFlush + PmemDrain here; `Persist` in src/persist/barrier.h), the drain
// returns at WPQ acceptance, and large copies switch to non-temporal
// stores past a threshold exactly as pmem_memcpy does. On an eADR platform
// (PlatformConfig::eadr_enabled) flushes are unnecessary and PmemHasAutoFlush
// reports true.

#ifndef SRC_API_PMEM_H_
#define SRC_API_PMEM_H_

#include <cstddef>

#include "src/core/system.h"
#include "src/cpu/thread_context.h"

namespace pmemsim {

// Past this size pmem_memcpy-style copies use non-temporal stores (PMDK uses
// a comparable movnt threshold) to avoid polluting the caches and to skip the
// flush pass.
inline constexpr size_t kPmemMovntThreshold = 256;

// Equivalent of pmem_map_file(..., PMEM_FILE_CREATE): reserves a PM range.
PmRegion PmemMapFile(System& system, uint64_t size);

// True when stores are persistent without flushes (eADR platforms).
bool PmemHasAutoFlush(const System& system);

// pmem_flush: initiate write-back of [addr, addr+len) cachelines.
void PmemFlush(ThreadContext& cpu, Addr addr, size_t len);

// pmem_drain: wait until previously initiated flushes are accepted to the
// power-fail-protected domain.
void PmemDrain(ThreadContext& cpu);

// pmem_memcpy_persist: copy into PM and make it durable. Small copies go
// through the caches and are flushed; large copies stream with nt-stores.
void PmemMemcpyPersist(ThreadContext& cpu, Addr dst, const void* src, size_t len);

// pmem_memset_persist.
void PmemMemsetPersist(ThreadContext& cpu, Addr dst, int c, size_t len);

// pmem_memcpy_nodrain: like the above without the trailing drain (callers
// batch several copies and drain once).
void PmemMemcpyNodrain(ThreadContext& cpu, Addr dst, const void* src, size_t len);

}  // namespace pmemsim

#endif  // SRC_API_PMEM_H_
