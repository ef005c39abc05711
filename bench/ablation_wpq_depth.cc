// Ablation: how much of the "consistent write latency" finding (paper §3.6)
// rests on the WPQ and the asynchronous drain?
//
// Sweeps the WPQ depth for the pure-write workload of Fig. 8(c). A deep WPQ
// keeps per-element write latency flat across WSS (acceptance is the persist
// point); a shallow WPQ exposes the media write latency as soon as the
// working set spills the write buffer.

#include <string>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/common/config.h"

namespace {

using namespace pmemsim;

double Measure(uint32_t wpq_entries, uint64_t wss) {
  PlatformConfig cfg = G1Platform();
  cfg.imc.wpq.entries = wpq_entries;
  return pmemsim_bench::MeasureChaseList(
      cfg, wss, /*sequential=*/false, 0xAB, 4000, 8000,
      [](ThreadContext& ctx, ChaseList& list, uint64_t n) {
        return list.PureWrite(ctx, n, PersistMode::kClwbSfence, Persistency::kStrict);
      });
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "ablation_wpq_depth");
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Ablation", "WPQ depth vs write-latency consistency (Fig. 8c)",
                  {"wpq_entries", "wss_kb", "cycles_per_element"});
  for (const uint32_t entries : {1u, 4u, 16u, 64u}) {
    for (const uint64_t kb : {4ull, 16ull, 64ull, 256ull, 1024ull, 4096ull}) {
      const std::string label = "wpq" + std::to_string(entries) + "/" + std::to_string(kb) + "kb";
      runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
        point.Emit(pmemsim_bench::Row()
                       .Set("wpq_entries", entries)
                       .Set("wss_kb", kb)
                       .Set("cycles_per_element", Measure(entries, KiB(kb)), 1));
      });
    }
  }
  return sweep.Finish();
}
