// Ablation: how much of the "consistent write latency" finding (paper §3.6)
// rests on the WPQ and the asynchronous drain?
//
// Sweeps the WPQ depth for the pure-write workload of Fig. 8(c). A deep WPQ
// keeps per-element write latency flat across WSS (acceptance is the persist
// point); a shallow WPQ exposes the media write latency as soon as the
// working set spills the write buffer.

#include <memory>
#include <string>

#include "bench/sweep_runner.h"
#include "src/common/config.h"
#include "src/core/system.h"
#include "src/datastores/chase_list.h"

namespace {

using namespace pmemsim;

double Measure(uint32_t wpq_entries, uint64_t wss) {
  PlatformConfig cfg = G1Platform();
  cfg.imc.wpq_entries = wpq_entries;
  auto system = std::make_unique<System>(cfg, 1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(wss, kXPLineSize);
  ChaseList list(system.get(), region, /*sequential=*/false, 0xAB);
  list.PureWrite(ctx, 4000, PersistMode::kClwbSfence, Persistency::kStrict);
  const Cycles t = list.PureWrite(ctx, 8000, PersistMode::kClwbSfence, Persistency::kStrict);
  return static_cast<double>(t) / 8000.0;
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "ablation_wpq_depth", "");
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
