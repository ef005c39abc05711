// Ablation: the persistency-model spectrum (paper §3.6 discussion of strict
// vs relaxed, and the epoch/strand models of Pelley et al. it cites).
//
// Sweeps the epoch length for the Fig. 8 element-update workload: epoch = 1
// is strict persistency, epoch = WSS is the paper's relaxed model. The paper's
// takeaway — reducing persists to the same XPLine matters more than reducing
// the number of XPLines persisted, and all models converge once the media is
// the bottleneck — shows up as the curves collapsing at large WSS.

#include <string>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"

namespace {

using namespace pmemsim;

double Measure(uint64_t wss, uint64_t epoch_len) {
  const Persistency model = epoch_len == 1 ? Persistency::kStrict : Persistency::kEpoch;
  return pmemsim_bench::MeasureChaseList(
      G1Platform(), wss, /*sequential=*/false, 0xE9, 4000, 8000,
      [=](ThreadContext& ctx, ChaseList& list, uint64_t n) {
        return list.TraverseUpdate(ctx, n, PersistMode::kClwbSfence, model, epoch_len);
      });
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "ablation_persistency");
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Ablation", "persistency spectrum: strict -> epoch -> relaxed",
                  {"wss_kb", "epoch_len", "cycles_per_element"});
  for (const uint64_t kb : {8ull, 64ull, 1024ull, 16384ull}) {
    for (const uint64_t epoch : {1ull, 4ull, 16ull, 64ull, 1024ull}) {
      const std::string label = std::to_string(kb) + "kb/epoch" + std::to_string(epoch);
      runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
        point.Emit(pmemsim_bench::Row()
                       .Set("wss_kb", kb)
                       .Set("epoch_len", epoch)
                       .Set("cycles_per_element", Measure(KiB(kb), epoch), 1));
      });
    }
  }
  return sweep.Finish();
}
