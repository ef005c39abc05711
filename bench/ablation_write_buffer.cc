// Ablation: which write-buffer design reproduces Figures 3 & 4?
//
// The paper infers random-victim eviction (graceful hit-ratio decay under
// random writes, Fig. 4) and, on G1, periodic write-back of fully written
// XPLines (WA = 1 for full writes even at tiny WSS, Fig. 3). This bench flips
// each choice:
//   * oldest-first eviction -> under a cyclic write pattern the hit ratio
//     collapses to ~0 past capacity (no graceful decay)
//   * periodic write-back off -> full-write WA stays 0 below capacity

#include <string>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/common/config.h"
#include "src/core/platform.h"
#include "src/trace/counters.h"

namespace {

using namespace pmemsim;

PlatformConfig AblatedPlatform(WriteBufferEviction wb_eviction, bool periodic) {
  PlatformConfig cfg = G1Platform();
  cfg.optane.write_buffer.eviction = wb_eviction;
  cfg.optane.write_buffer.periodic_full_writeback = periodic;
  cfg.optane.write_buffer.batch_evict = false;  // isolate the victim-choice policy
  return cfg;
}

// Cyclic single-line writes: random eviction decays gracefully, oldest-first
// (FIFO) thrashes exactly like Fig. 2's read cliff.
double CyclicHitRatio(WriteBufferEviction wb_eviction, uint64_t wss) {
  System system(AblatedPlatform(wb_eviction, false), 1);
  ThreadContext& ctx = system.CreateThread();
  SetPrefetchers(ctx, false, false, false);
  const PmRegion region = system.AllocatePm(wss, kXPLineSize);
  const uint64_t xplines = wss / kXPLineSize;
  auto run = [&](uint64_t writes) {
    for (uint64_t i = 0; i < writes; ++i) {
      ctx.NtStore64(region.base + (i % xplines) * kXPLineSize, i);
    }
    ctx.Sfence();
  };
  run(4 * xplines);
  CounterDelta d(&system.counters());
  run(12 * xplines);
  return d.Delta().WriteBufferHitRatio();
}

// Fig. 3's full-XPLine write pattern (every cacheline, address order).
double FullWriteWa(bool periodic, uint64_t wss) {
  return pmemsim_bench::MeasureWriteAmplification(
      AblatedPlatform(WriteBufferEviction::kRandom, periodic), wss, kLinesPerXPLine,
      /*random=*/false);
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "ablation_write_buffer");
  const uint64_t max_kb = sweep.flags().GetU64("max_kb", 32);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Ablation", "write-buffer eviction & periodic write-back",
                  {"experiment", "policy", "wss_kb", "value"});
  auto emit = [](pmemsim_bench::SweepPoint& point, const char* experiment, const char* policy,
                 uint64_t kb, double value) {
    point.Emit(pmemsim_bench::Row()
                   .Set("experiment", experiment)
                   .Set("policy", policy)
                   .Set("wss_kb", kb)
                   .Set("value", value, 3));
  };
  for (uint64_t kb = 4; kb <= max_kb; kb += 4) {
    runner.Add("cyclic-hit-ratio/" + std::to_string(kb) + "kb",
               [=](pmemsim_bench::SweepPoint& point) {
                 emit(point, "cyclic-hit-ratio", "random", kb,
                      CyclicHitRatio(WriteBufferEviction::kRandom, KiB(kb)));
                 emit(point, "cyclic-hit-ratio", "oldest-first", kb,
                      CyclicHitRatio(WriteBufferEviction::kOldest, KiB(kb)));
               });
  }
  for (uint64_t kb = 4; kb <= max_kb; kb += 4) {
    runner.Add("full-write-wa/" + std::to_string(kb) + "kb",
               [=](pmemsim_bench::SweepPoint& point) {
                 emit(point, "full-write-wa", "periodic-on (G1 hardware)", kb,
                      FullWriteWa(true, KiB(kb)));
                 emit(point, "full-write-wa", "periodic-off (G2-like)", kb,
                      FullWriteWa(false, KiB(kb)));
               });
  }
  return sweep.Finish();
}
