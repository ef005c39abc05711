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

#include <string>
#include <vector>

#include "bench/sweep_runner.h"
#include "src/core/platform.h"
#include "src/datastores/chase_list.h"

namespace {

using namespace pmemsim;

struct Series {
  const char* name;
  bool sequential;
  PersistMode mode;
};

double MeasureUpdate(Generation gen, uint64_t wss, bool sequential, PersistMode mode,
                     Persistency persistency, uint64_t max_ops) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(wss, kXPLineSize);
  ChaseList list(system.get(), region, sequential, /*seed=*/0x11 + wss);

  const uint64_t count = list.size();
  const uint64_t warm = std::max<uint64_t>(std::min<uint64_t>(count, max_ops), 2000);
  const uint64_t measured = std::max<uint64_t>(std::min<uint64_t>(2 * count, max_ops), 4000);
  list.TraverseUpdate(ctx, warm, mode, persistency);
  const Cycles cycles = list.TraverseUpdate(ctx, measured, mode, persistency);
  return static_cast<double>(cycles) / static_cast<double>(measured);
}

double MeasureRead(Generation gen, uint64_t wss, bool sequential, uint64_t max_ops) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(wss, kXPLineSize);
  ChaseList list(system.get(), region, sequential, /*seed=*/0x22 + wss);

  const uint64_t count = list.size();
  const uint64_t warm = std::max<uint64_t>(std::min<uint64_t>(count, max_ops), 2000);
  const uint64_t measured = std::max<uint64_t>(std::min<uint64_t>(2 * count, max_ops), 4000);
  list.TraverseRead(ctx, warm);
  const Cycles cycles = list.TraverseRead(ctx, measured);
  return static_cast<double>(cycles) / static_cast<double>(measured);
}

double MeasurePureWrite(Generation gen, uint64_t wss, bool sequential, PersistMode mode,
                        uint64_t max_ops) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(wss, kXPLineSize);
  ChaseList list(system.get(), region, sequential, /*seed=*/0x33 + wss);

  const uint64_t count = list.size();
  const uint64_t warm = std::max<uint64_t>(std::min<uint64_t>(count, max_ops), 2000);
  const uint64_t measured = std::max<uint64_t>(std::min<uint64_t>(2 * count, max_ops), 4000);
  list.PureWrite(ctx, warm, mode, Persistency::kStrict);
  const Cycles cycles = list.PureWrite(ctx, measured, mode, Persistency::kStrict);
  return static_cast<double>(cycles) / static_cast<double>(measured);
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "fig08_latency",
                             " [--gen=g1|g2|both] [--max_mb=1024] [--max_ops=120000]\n"
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
          emit(point, "strict", s.name, wss,
               MeasureUpdate(g.gen, wss, s.sequential, s.mode, Persistency::kStrict, max_ops));
          emit(point, "relaxed", s.name, wss,
               MeasureUpdate(g.gen, wss, s.sequential, s.mode, Persistency::kRelaxed, max_ops));
          emit(point, "breakdown", s.name, wss,
               MeasurePureWrite(g.gen, wss, s.sequential, s.mode, max_ops));
        });
      }
      for (const bool sequential : {true, false}) {
        const std::string series = std::string(sequential ? "seq" : "rand") + "_rd";
        const std::string label =
            std::string(g.name) + "/" + series + "/" + std::to_string(wss / 1024) + "kb";
        runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
          emit(point, "breakdown", series, wss, MeasureRead(g.gen, wss, sequential, max_ops));
        });
      }
    }
  }
  return sweep.Finish();
}
