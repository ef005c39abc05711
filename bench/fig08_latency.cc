// Figure 8 (paper §3.6): user-perceived per-element latency vs working set
// size for the 256 B pointer-chase element workload:
//   (a) writes under strict persistency (barrier per element)
//   (b) writes under relaxed persistency (one fence per pass)
//   (c) latency breakdown: pure reads vs pure writes
// with sequential and random element orders, clwb and nt-store persists.
//
// Expected shapes (paper): three latency levels — low while the WSS fits the
// on-DIMM buffers, a ~400-cycle plateau up to ~16 MB, then a steep climb to
// ~1000+ for random access as the AIT and L3 overflow. Write latency stays
// flat at any WSS; reads dominate beyond the LLC.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/datastores/chase_list.h"

namespace {

using namespace pmemsim;

struct Series {
  const char* name;
  bool sequential;
  PersistMode mode;
};

// Warms up over the list once (at least 2000 elements), then measures two
// passes (at least 4000), both capped at max_ops. The list's seed is salt + wss.
double Measure(Generation gen, uint64_t wss, bool sequential, uint64_t salt, uint64_t max_ops,
               const pmemsim_bench::ChasePass& pass) {
  const uint64_t count = wss / ChaseList::kElementSize;
  return pmemsim_bench::MeasureChaseList(
      PlatformFor(gen), wss, sequential, salt + wss,
      std::max<uint64_t>(std::min<uint64_t>(count, max_ops), 2000),
      std::max<uint64_t>(std::min<uint64_t>(2 * count, max_ops), 4000), pass);
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig08_latency",
                             "Panels: strict, relaxed, breakdown (pure read / pure write).");
  const auto gens = sweep.flags().GetGenerations("g1");
  const uint64_t max_mb = sweep.flags().GetU64("max_mb", 1024);
  const uint64_t max_ops = sweep.flags().GetU64("max_ops", 120000);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Figure 8", "per-element latency vs WSS (linked-list elements)",
                  {"gen", "panel", "series", "wss_kb", "cycles"});

  static const Series kWriteSeries[] = {
      {"seq_clwb", true, PersistMode::kClwbSfence},
      {"rand_clwb", false, PersistMode::kClwbSfence},
      {"seq_nt-store", true, PersistMode::kNtStoreSfence},
      {"rand_nt-store", false, PersistMode::kNtStoreSfence},
  };

  std::vector<uint64_t> wss_points;
  for (uint64_t kb = 4; kb <= max_mb * 1024; kb *= 2) {
    wss_points.push_back(KiB(kb));
  }

  for (const auto& g : gens) {
    auto emit = [gname = g.name](pmemsim_bench::SweepPoint& point, const char* panel,
                                 const std::string& series, uint64_t wss, double cycles) {
      point.Emit(pmemsim_bench::Row()
                     .Set("gen", gname)
                     .Set("panel", panel)
                     .Set("series", series)
                     .Set("wss_kb", wss / 1024)
                     .Set("cycles", cycles, 1));
    };
    for (const uint64_t wss : wss_points) {
      for (const Series& s : kWriteSeries) {
        const std::string label =
            std::string(g.name) + "/" + s.name + "/" + std::to_string(wss / 1024) + "kb";
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          for (const Persistency p : {Persistency::kStrict, Persistency::kRelaxed}) {
            emit(point, p == Persistency::kStrict ? "strict" : "relaxed", s.name, wss,
                 Measure(g.gen, wss, s.sequential, 0x11, max_ops,
                         [&](ThreadContext& ctx, ChaseList& list, uint64_t n) {
                           return list.TraverseUpdate(ctx, n, s.mode, p);
                         }));
          }
          emit(point, "breakdown", s.name, wss,
               Measure(g.gen, wss, s.sequential, 0x33, max_ops,
                       [&](ThreadContext& ctx, ChaseList& list, uint64_t n) {
                         return list.PureWrite(ctx, n, s.mode, Persistency::kStrict);
                       }));
        });
      }
      for (const bool sequential : {true, false}) {
        const std::string series = std::string(sequential ? "seq" : "rand") + "_rd";
        const std::string label =
            std::string(g.name) + "/" + series + "/" + std::to_string(wss / 1024) + "kb";
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          emit(point, "breakdown", series, wss,
               Measure(g.gen, wss, sequential, 0x22, max_ops,
                       [](ThreadContext& ctx, ChaseList& list, uint64_t n) {
                         return list.TraverseRead(ctx, n);
                       }));
        });
      }
    }
  }
  return sweep.Finish();
}
