// Ablation: the paper's headline programming guideline (§3.2 implications,
// §5 FlatStore/ArchTM discussion) — coalesce small writes into XPLine-sized
// writes instead of persisting each record in place.
//
// Inserts N 16 B records two ways:
//   in-place    — store + clwb + sfence per record into a slot array (the
//                 naive persistent-table layout: 64 B-granular random writes)
//   coalesced   — FlatStore-style log batching four records into one 256 B
//                 nt-store burst with a single fence
// and reports cycles/record and the ipmwatch write amplification. The
// guideline holds when the WSS exceeds the write buffer: in-place WA tends
// toward 4 while the coalesced log stays at ~1 and runs faster.

#include <vector>

#include "bench/sweep_runner.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/datastores/flat_log.h"
#include "src/persist/barrier.h"
#include "src/trace/counters.h"

namespace {

using namespace pmemsim;

struct Result {
  double cycles = 0;
  double wa = 0;
};

Result RunInPlace(uint64_t records) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  // A slot table far larger than the write buffer; random slot order.
  const PmRegion table = system->AllocatePm(records * 64, kXPLineSize);
  std::vector<uint64_t> order(records);
  for (uint64_t i = 0; i < records; ++i) {
    order[i] = i;
  }
  Rng rng(0xC0A1);
  rng.Shuffle(order);

  CounterDelta delta(&system->counters());
  const Cycles t0 = ctx.clock();
  for (const uint64_t slot : order) {
    const Addr addr = table.base + slot * 64;
    ctx.Store64(addr, slot);       // key
    ctx.Store64(addr + 8, ~slot);  // value
    Persist(ctx, addr, 16);
  }
  return {static_cast<double>(ctx.clock() - t0) / static_cast<double>(records),
          delta.Delta().WriteAmplification()};
}

Result RunCoalesced(uint64_t records) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion log_region = system->AllocatePm(records * 64 + kXPLineSize, kXPLineSize);
  FlatLog log(system.get(), log_region);

  CounterDelta delta(&system->counters());
  const Cycles t0 = ctx.clock();
  for (uint64_t i = 0; i < records; ++i) {
    const uint64_t value = ~i;
    log.Put(ctx, i + 1, &value, sizeof(value));
  }
  log.Flush(ctx);
  return {static_cast<double>(ctx.clock() - t0) / static_cast<double>(records),
          delta.Delta().WriteAmplification()};
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "ablation_coalescing");
  const uint64_t records = sweep.flags().GetU64("records", 200000);
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Ablation", "coalescing small writes into XPLines (FlatStore guideline)",
                  {"layout", "records", "cycles_per_record", "write_amplification"});
  struct Layout {
    const char* name;
    Result (*run)(uint64_t);
  };
  static const Layout kLayouts[] = {{"in-place", &RunInPlace}, {"coalesced", &RunCoalesced}};
  for (const Layout& layout : kLayouts) {
    runner.Add(layout.name, [=](pmemsim_bench::SweepPoint& point) {
      const Result r = layout.run(records);
      point.Emit(pmemsim_bench::Row()
                     .Set("layout", layout.name)
                     .Set("records", records)
                     .Set("cycles_per_record", r.cycles, 1)
                     .Set("write_amplification", r.wa, 3));
    });
  }
  return sweep.Finish();
}
