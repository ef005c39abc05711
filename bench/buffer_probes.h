// The probes the figure benches share with each other, their ablations and
// pmemsim_trace. Each runs one fixed op stream on a single-DIMM System:
// warm-up passes, then the measured passes. The on-DIMM buffer probes of
// paper §3.1-§3.2 run with the CPU prefetchers off.

#ifndef BENCH_BUFFER_PROBES_H_
#define BENCH_BUFFER_PROBES_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/config.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/core/system.h"
#include "src/cpu/scheduler.h"
#include "src/datastores/chase_list.h"
#include "src/persist/barrier.h"

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

// Figure 8 and its ablations (§3.6): a ChaseList over `wss_bytes` (elements
// in address order with `sequential`, else shuffled by `seed`) on a new
// single-DIMM `platform` System with one thread. Runs `pass` over `warm`
// elements, then over `measured` ones, and returns the measured pass's cycles
// per element.
using ChasePass = std::function<pmemsim::Cycles(pmemsim::ThreadContext&, pmemsim::ChaseList&,
                                                uint64_t elements)>;
double MeasureChaseList(const pmemsim::PlatformConfig& platform, uint64_t wss_bytes,
                        bool sequential, uint64_t seed, uint64_t warm, uint64_t measured,
                        const ChasePass& pass);

// The access kernel pmemsim_probe and pmemsim_watch drive: one op kind over
// the region.size / stride lines of a region, each worker a simulated thread
// with its own sequential cursor or seeded random index.
enum class AccessOp : uint8_t {
  kLoadLine,    // LoadLine
  kStore,       // Store64, left in the caches
  kPersist,     // PersistentStore64 per the spec's mode
  kRap,         // kPersist, then Load64 of the line `distance` strides back (Algorithm 1)
  kStreamCopy,  // stream-copy the line's XPLine into the bounce buffer
};
enum class AccessPattern : uint8_t { kSeq, kRand };

struct AccessSpec {
  AccessOp op = AccessOp::kLoadLine;
  AccessPattern pattern = AccessPattern::kRand;
  pmemsim::PersistMode mode = pmemsim::PersistMode::kClwbSfence;  // kPersist, kRap
  uint64_t distance = 0;  // kRap, in strides, modulo the region's line count
};

struct AccessWorker {
  pmemsim::ThreadContext* ctx = nullptr;
  pmemsim::Rng rng{0};         // the kRand index
  uint64_t pos = 0;            // the kSeq cursor
  uint64_t done = 0;           // ops of the current phase; each store writes this value
  pmemsim::Histogram latency;  // per-op cycles
};

struct AccessKernel {
  AccessSpec spec;
  pmemsim::PmRegion region;
  uint64_t stride = pmemsim::kCacheLineSize;
  pmemsim::Addr bounce = 0;  // kStreamCopy's target, a DRAM XPLine

  // The RunWorkers step: issues `w`'s next op and records its latency.
  void operator()(AccessWorker& w) const;
};

// One phase of a multi-threaded probe: worker i (a struct with a `ctx` and a
// `done` count, restarted at zero) takes quotas[i] steps of step(worker), all
// workers interleaved by one Scheduler::Run (which drives `sampler`, if any).
// Returns the phase's end cycle.
template <typename Worker, typename Step>
pmemsim::Cycles RunWorkers(std::vector<Worker>& workers, const std::vector<uint64_t>& quotas,
                           const Step& step, pmemsim::Sampler* sampler = nullptr) {
  std::vector<pmemsim::SimJob> jobs;
  for (size_t i = 0; i < workers.size(); ++i) {
    Worker& w = workers[i];
    w.done = 0;
    jobs.push_back({w.ctx, [&w, &step, quota = quotas[i]]() {
                      if (w.done >= quota) {
                        return pmemsim::StepResult::kDone;
                      }
                      step(w);
                      ++w.done;
                      return pmemsim::StepResult::kProgress;
                    }});
  }
  return pmemsim::Scheduler::Run(jobs, sampler);
}

// `ops` split exactly across `threads`: the first ops % threads threads take
// one op more than the rest.
std::vector<uint64_t> SplitOps(uint64_t ops, uint32_t threads);

}  // namespace pmemsim_bench

#endif  // BENCH_BUFFER_PROBES_H_
