// Ablation: what would eADR have bought? (paper §6 discussion)
//
// The paper's G2 testbed ran with eADR disabled; with eADR the CPU caches are
// in the persistence domain and cacheline flushes become unnecessary. This
// bench contrasts G2 vs G2+eADR on two paper workloads:
//   * the Fig. 8 strict-persistency element update (flush+fence per element)
//   * the Fig. 12 in-place B+-tree insert (a flush per key shift)
// Under eADR the flush cost disappears and with it most of the remaining
// persistency overhead — the in-place B+-tree no longer needs redo logging.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/buffer_probes.h"
#include "bench/sweep_runner.h"
#include "src/common/config.h"
#include "src/core/system.h"
#include "src/datastores/chase_list.h"
#include "src/datastores/fast_fair.h"
#include "src/workload/ycsb.h"

namespace {

using namespace pmemsim;

double ElementUpdate(const PlatformConfig& cfg) {
  return pmemsim_bench::MeasureChaseList(
      cfg, MiB(1), /*sequential=*/false, 0xEAD, 4000, 8000,
      [](ThreadContext& ctx, ChaseList& list, uint64_t n) {
        return list.TraverseUpdate(ctx, n, PersistMode::kClwbSfence, Persistency::kStrict);
      });
}

double BtreeInsert(const PlatformConfig& cfg) {
  auto system = std::make_unique<System>(cfg, 1);
  ThreadContext& ctx = system->CreateThread();
  FastFairTree tree(system.get(), ctx);
  const std::vector<uint64_t> keys = MakeLoadKeys(40000, 0xEAD2);
  const Cycles t0 = ctx.clock();
  for (const uint64_t k : keys) {
    tree.Insert(ctx, k, k, BTreeUpdateMode::kInPlace);
  }
  return static_cast<double>(ctx.clock() - t0) / static_cast<double>(keys.size());
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "ablation_eadr");
  // Default: the paper's contrast pair (G2 vs G2+eADR). --platform=g2 (or
  // any list of presets) narrows or reorders the run.
  std::vector<PlatformConfig> platforms;
  for (const std::string& name : sweep.flags().GetList("platform", "g2,g2-eadr")) {
    const std::optional<PlatformConfig> platform = PlatformByName(name);
    if (!platform) {
      pmemsim_bench::Flags::BadValue("platform", name, "comma-separated g1, g2 or g2-eadr");
    }
    platforms.push_back(*platform);
  }
  pmemsim_bench::SweepRunner& runner = sweep.Start(
      "Ablation", "G2 with and without eADR (paper §6)", {"workload", "platform", "cycles"});
  struct Case {
    const char* workload;
    double (*run)(const PlatformConfig&);
  };
  const Case cases[] = {
      {"element-update-strict", &ElementUpdate},
      {"btree-inplace-insert", &BtreeInsert},
  };
  for (const Case& c : cases) {
    for (const PlatformConfig& platform : platforms) {
      const std::string label = std::string(c.workload) + "/" + platform.name;
      runner.Add(label, [=](pmemsim_bench::SweepPoint& point) {
        point.Emit(pmemsim_bench::Row()
                       .Set("workload", c.workload)
                       .Set("platform", platform.name)
                       .Set("cycles", c.run(platform), 1));
      });
    }
  }
  return sweep.Finish();
}
