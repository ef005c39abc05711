// The on-DIMM buffer probes of paper §3.1-§3.2, shared by the figure benches,
// their ablations and pmemsim_trace. Each runs one fixed op stream on a
// single-DIMM System with the CPU prefetchers off: warm-up passes, then the
// measured passes.

#ifndef BENCH_BUFFER_PROBES_H_
#define BENCH_BUFFER_PROBES_H_

#include <cstdint>
#include <functional>

#include "src/common/config.h"
#include "src/core/system.h"

namespace pmemsim_bench {

// Figure 2: strided reads of the first `cpx` cachelines of every XPLine in a
// `wss_bytes` region, each load clflushopt'd so the next visit leaves the CPU
// caches. Returns the read amplification of 8 passes after 3 warm-up passes.
double MeasureReadAmplification(const pmemsim::PlatformConfig& platform, uint64_t wss_bytes,
                                uint32_t cpx);

// Figure 3: nt-stores to the first `lines_per_xpline` cachelines of every
// XPLine, XPLines in address order or (`random`) a seeded shuffle. Returns
// the write amplification of 8 passes after 3 warm-up passes.
double MeasureWriteAmplification(const pmemsim::PlatformConfig& platform, uint64_t wss_bytes,
                                 uint32_t lines_per_xpline, bool random);

// Figure 4: random one-cacheline nt-stores over a `wss_bytes` region on a new
// thread of `system`: 4 * XPLines + 512 warm-up writes, `between_phases`, then
// 16 * XPLines + 2048 measured writes. Returns the thread's end clock.
pmemsim::Cycles RunRandomPartialWrites(
    pmemsim::System& system, uint64_t wss_bytes,
    const std::function<void(pmemsim::ThreadContext&)>& between_phases);

}  // namespace pmemsim_bench

#endif  // BENCH_BUFFER_PROBES_H_
