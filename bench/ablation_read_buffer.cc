// Ablation: which read-buffer design reproduces Figure 2?
//
// The paper infers (§3.1) that the read buffer evicts FIFO and is exclusive
// of the CPU caches (RA jumps sharply past capacity, and never drops below
// 1). This bench re-runs the Fig. 2 probe under the alternatives:
//   * LRU eviction     -> the RA cliff softens (re-referenced XPLines survive)
//   * inclusive buffer -> RA drops below 1 when the WSS fits (recurring reads
//                         hit the buffer instead of the media)
// Only FIFO+exclusive matches the measurements.

#include <string>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/common/config.h"

using namespace pmemsim;

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "ablation_read_buffer");
  const uint64_t max_kb = sweep.flags().GetU64("max_kb", 32);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Ablation", "read-buffer eviction & exclusivity vs Figure 2",
                  {"policy", "wss_kb", "cpx", "read_amplification"});

  struct Policy {
    const char* name;
    ReadBufferEviction eviction;
    bool exclusive;
  };
  static const Policy kPolicies[] = {
      {"fifo-exclusive (hardware)", ReadBufferEviction::kFifo, true},
      {"lru-exclusive", ReadBufferEviction::kLru, true},
      {"fifo-inclusive", ReadBufferEviction::kFifo, false},
  };
  for (const Policy& p : kPolicies) {
    PlatformConfig platform = G1Platform();
    platform.optane.read_buffer_eviction = p.eviction;
    platform.optane.read_buffer_exclusive = p.exclusive;
    for (uint64_t kb = 4; kb <= max_kb; kb += 4) {
      for (uint32_t cpx = 1; cpx <= 4; cpx += 3) {
        const std::string label =
            std::string(p.name) + "/" + std::to_string(kb) + "kb/cpx" + std::to_string(cpx);
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          const double ra = pmemsim_bench::MeasureReadAmplification(platform, KiB(kb), cpx);
          point.Emit(pmemsim_bench::Row()
                         .Set("policy", p.name)
                         .Set("wss_kb", kb)
                         .Set("cpx", cpx)
                         .Set("read_amplification", ra, 3));
        });
      }
    }
  }
  return sweep.Finish();
}
