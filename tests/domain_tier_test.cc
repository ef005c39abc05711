// Serving engine (DomainTier) tests: the determinism contract (byte-identical
// reports at any --engine_threads), the zero-lookahead eager fallback, one
// request path for the shared-System and private-System configurations,
// epoch-barrier edge cases (idle domains, tiny budgets), and the admission
// accounting identities.

#include <gtest/gtest.h>

#include <string>

#include "src/common/config.h"
#include "src/core/system.h"
#include "src/serve/domain_tier.h"
#include "src/serve/tier.h"
#include "src/trace/serve_metrics.h"
#include "src/workload/ycsb.h"

namespace pmemsim {
namespace {

ServeConfig SmallConfig(LoopMode loop) {
  ServeConfig cfg;
  cfg.loop = loop;
  cfg.shards = 3;
  cfg.workers_per_shard = 2;
  cfg.keys = 300;   // per shard
  cfg.ops = 300;    // per shard
  cfg.clients = 4;  // per shard (closed loop)
  cfg.queue_depth = 16;
  cfg.batch = 4;
  cfg.mix_name = "b";
  cfg.mix = *MixByName("b");
  cfg.seed = 7;
  return cfg;
}

std::string RunToJson(const ServeConfig& cfg) {
  DomainTier tier(G1Platform(), /*dimms_per_domain=*/1, cfg);
  tier.Run();
  return tier.ToJson();
}

void ExpectAccountingIdentities(const DomainTier& tier) {
  const ServiceStats global = tier.GlobalStats();
  EXPECT_EQ(global.offered, global.completed + global.rejected);
  uint64_t offered = 0, completed = 0, rejected = 0;
  for (const auto& domain : tier.domains()) {
    const ServiceStats& s = domain->stats();
    EXPECT_EQ(s.offered, s.completed + s.rejected) << "shard " << domain->index();
    offered += s.offered;
    completed += s.completed;
    rejected += s.rejected;
  }
  EXPECT_EQ(offered, global.offered);
  EXPECT_EQ(completed, global.completed);
  EXPECT_EQ(rejected, global.rejected);
}

TEST(DomainTierTest, ByteIdenticalReportAcrossEngineThreads) {
  // THE determinism contract: the full tier report (every counter, histogram
  // bucket, and tail percentile) must not depend on how many host threads
  // advanced the domains.
  for (const LoopMode loop : {LoopMode::kClosed, LoopMode::kOpen}) {
    ServeConfig cfg = SmallConfig(loop);
    cfg.engine_threads = 1;
    const std::string baseline = RunToJson(cfg);
    EXPECT_FALSE(baseline.empty());
    for (const uint32_t threads : {2u, 4u}) {
      cfg.engine_threads = threads;
      EXPECT_EQ(RunToJson(cfg), baseline)
          << LoopModeName(loop) << " diverges at engine_threads=" << threads;
    }
  }
}

TEST(DomainTierTest, SharedSystemTierIsTheLockstepDomainModel) {
  // One request path: a single-shard ServiceTier on a borrowed one-DIMM G1
  // System and a single-domain DomainTier with no dispatch hop build the same
  // machine and run the same lockstep engine, so every stat, tail and
  // attribution bucket must agree. Only the configuration's name differs.
  for (const StoreKind store : {StoreKind::kCceh, StoreKind::kFastFair}) {
    for (const LoopMode loop : {LoopMode::kClosed, LoopMode::kOpen}) {
      ServeConfig cfg = SmallConfig(loop);
      cfg.store = store;
      cfg.shards = 1;
      cfg.dispatch_latency = 0;
      System system(G1Platform(), 1);
      ServiceTier shared(&system, cfg);
      shared.Run();
      DomainTier owned(G1Platform(), 1, cfg);
      owned.Run();
      const std::string label = std::string(StoreName(store)) + "/" + LoopModeName(loop);
      ASSERT_GT(owned.GlobalStats().completed, 0u) << label;

      std::string shared_json = shared.ToJson();
      const std::string kInterleaved = "\"engine\":\"interleaved\"";
      const size_t at = shared_json.find(kInterleaved);
      ASSERT_NE(at, std::string::npos) << label;
      shared_json.replace(at, kInterleaved.size(), "\"engine\":\"partitioned\"");
      EXPECT_EQ(shared_json, owned.ToJson()) << label;
    }
  }
}

TEST(DomainTierTest, ClosedLoopCompletesTheOfferedBudget) {
  ServeConfig cfg = SmallConfig(LoopMode::kClosed);
  cfg.engine_threads = 2;
  DomainTier tier(G1Platform(), 1, cfg);
  tier.Run();
  const ServiceStats global = tier.GlobalStats();
  // Closed loop: every one of the ops*shards attempts is offered exactly once
  // (shed attempts retry as NEW offered ops, so offered can only grow if the
  // queue sheds; with depth 16 and 4 clients it never does here).
  EXPECT_EQ(global.offered, uint64_t{cfg.ops} * cfg.shards);
  EXPECT_EQ(global.completed + global.rejected, global.offered);
  ExpectAccountingIdentities(tier);
  EXPECT_GT(tier.end_cycle(), tier.serve_start());
}

TEST(DomainTierTest, OpenLoopIssuesExactlyTheGlobalBudget) {
  ServeConfig cfg = SmallConfig(LoopMode::kOpen);
  cfg.engine_threads = 4;
  DomainTier tier(G1Platform(), 1, cfg);
  tier.Run();
  // Open loop: the dispatcher generates exactly ops*shards arrivals, each
  // delivered (and therefore offered) exactly once somewhere in the tier.
  EXPECT_EQ(tier.GlobalStats().offered, uint64_t{cfg.ops} * cfg.shards);
  ExpectAccountingIdentities(tier);
}

TEST(DomainTierTest, ZeroLookaheadFallsBackToEagerAndCompletes) {
  // dispatch_latency == 0 removes the conservative window; the engine must
  // fall back to the combined sequential run and still satisfy every
  // accounting identity, in both loop modes.
  for (const LoopMode loop : {LoopMode::kClosed, LoopMode::kOpen}) {
    ServeConfig cfg = SmallConfig(loop);
    cfg.dispatch_latency = 0;
    cfg.engine_threads = 4;  // ignored in eager mode
    DomainTier tier(G1Platform(), 1, cfg);
    tier.Run();
    EXPECT_EQ(tier.GlobalStats().offered, uint64_t{cfg.ops} * cfg.shards)
        << LoopModeName(loop);
    ExpectAccountingIdentities(tier);
  }
}

TEST(DomainTierTest, EagerAndEpochModelsAgreeOnOfferedBudget) {
  // Different dispatch latencies are different simulated models (latencies
  // shift arrival times), but the conservation law — every issued request is
  // offered exactly once — holds at any window width, including widths far
  // smaller and far larger than the typical inter-arrival gap.
  for (const Cycles latency : {Cycles{1}, Cycles{512}, Cycles{65536}}) {
    ServeConfig cfg = SmallConfig(LoopMode::kOpen);
    cfg.dispatch_latency = latency;
    cfg.engine_threads = 2;
    DomainTier tier(G1Platform(), 1, cfg);
    tier.Run();
    EXPECT_EQ(tier.GlobalStats().offered, uint64_t{cfg.ops} * cfg.shards)
        << "latency=" << latency;
    ExpectAccountingIdentities(tier);
  }
}

TEST(DomainTierTest, IdleDomainsDoNotStallTheEpochBarrier) {
  // A tiny global budget leaves most domains with zero traffic for most (or
  // all) epochs. The run must terminate promptly — idle domains park at the
  // window edge in one step each — and the report must stay thread-count
  // independent even when only one domain ever works.
  ServeConfig cfg = SmallConfig(LoopMode::kOpen);
  cfg.ops = 2;   // per shard: 6 arrivals across 3 domains — some get none
  cfg.keys = 50;
  cfg.interarrival_cycles = 200000;  // sparse: many empty epochs in between
  cfg.engine_threads = 1;
  const std::string baseline = RunToJson(cfg);
  cfg.engine_threads = 4;
  EXPECT_EQ(RunToJson(cfg), baseline);

  DomainTier tier(G1Platform(), 1, cfg);
  tier.Run();
  EXPECT_EQ(tier.GlobalStats().offered, uint64_t{cfg.ops} * cfg.shards);
  EXPECT_EQ(tier.GlobalStats().rejected, 0u);

  // Closed-loop variant: fewer clients than shards, so at least one domain
  // starts (and may stay) requestless; its workers must still reach every
  // barrier.
  ServeConfig closed = SmallConfig(LoopMode::kClosed);
  closed.clients = 1;  // per-shard population 1 -> 3 clients over 3 domains
  closed.ops = 5;
  closed.keys = 50;
  closed.engine_threads = 1;
  const std::string closed_baseline = RunToJson(closed);
  closed.engine_threads = 4;
  EXPECT_EQ(RunToJson(closed), closed_baseline);
}

TEST(DomainTierTest, ShedFeedbackKeepsClosedLoopLiveUnderTinyQueues) {
  // Depth-1 queues with a large client population force sheds; shed clients
  // must re-issue (through the barrier event path) until the budget drains,
  // and the identity offered == completed + rejected still holds globally.
  ServeConfig cfg = SmallConfig(LoopMode::kClosed);
  cfg.queue_depth = 1;
  cfg.batch = 1;
  cfg.clients = 8;
  cfg.think_cycles = 100;  // hammer the queue
  cfg.engine_threads = 2;
  DomainTier tier(G1Platform(), 1, cfg);
  tier.Run();
  const ServiceStats global = tier.GlobalStats();
  EXPECT_GT(global.rejected, 0u) << "config no longer exercises shedding";
  EXPECT_EQ(global.offered, global.completed + global.rejected);
  EXPECT_EQ(global.offered, uint64_t{cfg.ops} * cfg.shards);
  ExpectAccountingIdentities(tier);
}

TEST(DomainTierTest, ReportExcludesEngineThreadsAndNamesTheEngine) {
  // engine_threads must never appear in the report (it would break the
  // byte-compare contract); the engine identity and its model parameter do.
  ServeConfig cfg = SmallConfig(LoopMode::kClosed);
  cfg.engine_threads = 4;
  const std::string json = RunToJson(cfg);
  EXPECT_EQ(json.find("engine_threads"), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"partitioned\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatch_latency\":2048"), std::string::npos);
}

// ---------- Serve observability on private-System domains ----------

// One observed run: the tier report, the timeline artifact, and the span
// export concatenated — everything the CLI can emit for a point.
std::string RunObservedToJson(const ServeConfig& cfg) {
  ServeTimeline timeline(TimelineConfigFor(cfg, /*partitioned=*/true, /*interval=*/5000));
  timeline.EnableSpans();
  DomainTier tier(G1Platform(), /*dimms_per_domain=*/1, cfg);
  tier.AttachTimeline(&timeline);
  tier.Run();
  return tier.ToJson() + "\n" + timeline.ToJson() + "\n" + timeline.SpansToJson();
}

TEST(DomainTierTest, TimelineByteIdenticalAcrossEngineThreads) {
  // The observability extension of the determinism contract: the windowed
  // timeline (including the per-domain memory-plane series) and every span
  // must byte-compare across host thread counts, not just the end-of-run
  // report.
  for (const LoopMode loop : {LoopMode::kClosed, LoopMode::kOpen}) {
    ServeConfig cfg = SmallConfig(loop);
    cfg.engine_threads = 1;
    const std::string baseline = RunObservedToJson(cfg);
    EXPECT_FALSE(baseline.empty());
    for (const uint32_t threads : {2u, 4u}) {
      cfg.engine_threads = threads;
      EXPECT_EQ(RunObservedToJson(cfg), baseline)
          << LoopModeName(loop) << " timeline diverges at engine_threads=" << threads;
    }
  }
}

TEST(DomainTierTest, EagerTimelineWellFormedAndConserved) {
  // The zero-lookahead fallback drives the per-domain samplers from worker
  // steps instead of a private scheduler; the timeline identities must hold
  // there too.
  ServeConfig cfg = SmallConfig(LoopMode::kOpen);
  cfg.dispatch_latency = 0;
  cfg.engine_threads = 4;  // ignored in eager mode
  ServeTimeline timeline(TimelineConfigFor(cfg, /*partitioned=*/true, /*interval=*/5000));
  DomainTier tier(G1Platform(), 1, cfg);
  tier.AttachTimeline(&timeline);
  tier.Run();

  EXPECT_FALSE(timeline.truncated());
  const ServiceStats global = tier.GlobalStats();
  uint64_t completed = 0, shed = 0;
  Cycles prev_end = tier.serve_start();
  for (const ServeWindow& w : timeline.global_windows()) {
    EXPECT_EQ(w.t_begin, prev_end) << "window " << w.index;
    prev_end = w.t_end;
    completed += w.completed;
    shed += w.shed;
  }
  EXPECT_EQ(completed, global.completed);
  EXPECT_EQ(shed, global.rejected);
  // Windows reach the engine's final cycle and partition [serve_start, end).
  EXPECT_EQ(timeline.global_windows().front().t_begin, tier.serve_start());
  EXPECT_GE(prev_end, tier.end_cycle());
}

}  // namespace
}  // namespace pmemsim
