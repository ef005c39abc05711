// The probes the figure benches share with each other, their ablations and
// pmemsim_trace. Each runs one fixed op stream on a single-DIMM System:
// warm-up passes, then the measured passes. The on-DIMM buffer probes of
// paper §3.1-§3.2 run with the CPU prefetchers off.

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

// Figures 6 and 13 (§3.4, §4.3): shuffled visits to the 256 B blocks of a
// `wss_bytes` region on a new single-DIMM `gen` System. A visit loads the
// block's four cachelines `repeats` times, clflushopts them and sfences.
// With `redirect` (Algorithm 2) it first stream-copies the block into a DRAM
// bounce buffer and loads the copy instead. Runs min(blocks, max_visits)
// warm-up visits (at least 4096), then min(2 * blocks, max_visits) measured
// ones (at least 8192).
struct BlockVisitProbe {
  uint64_t seed = 0;      // the visit order's shuffle seed is seed + wss_bytes
  bool adjacent = false;  // CPU prefetchers on
  bool dcu = false;
  bool stream = false;
  bool redirect = false;
};
struct ReadRatios {
  double pm = 0;   // media read bytes per demanded byte
  double imc = 0;  // iMC read bytes per demanded byte
};
ReadRatios MeasureBlockReadRatios(pmemsim::Generation gen, uint64_t wss_bytes,
                                  const BlockVisitProbe& probe, uint64_t max_visits,
                                  uint32_t repeats);

}  // namespace pmemsim_bench

#endif  // BENCH_BUFFER_PROBES_H_
