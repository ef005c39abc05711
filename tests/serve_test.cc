// Serving-tier tests on the shared-System configuration (ServiceTier):
// admission-queue mechanics, closed/open-loop completion, shed determinism,
// per-shard/global aggregation, and the latency identity
// sojourn == queue wait + service.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/platform.h"
#include "src/serve/request_queue.h"
#include "src/serve/tier.h"
#include "src/trace/json.h"
#include "src/trace/serve_metrics.h"

namespace pmemsim {
namespace {

// ---------- RequestQueue ----------

TEST(RequestQueueTest, BoundedDepthShedsWhenFull) {
  RequestQueue q(3);
  Request r;
  EXPECT_TRUE(q.Offer(r, r.arrival));
  EXPECT_TRUE(q.Offer(r, r.arrival));
  EXPECT_TRUE(q.Offer(r, r.arrival));
  EXPECT_FALSE(q.Offer(r, r.arrival));  // depth 3: the fourth is shed
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.offered(), 4u);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.max_occupancy(), 3u);
}

TEST(RequestQueueTest, ClaimBatchIsFifoAndBounded) {
  RequestQueue q(16);
  for (uint64_t k = 1; k <= 10; ++k) {
    Request r;
    r.key = k;
    ASSERT_TRUE(q.Offer(r, r.arrival));
  }
  std::vector<Request> batch;
  EXPECT_EQ(q.ClaimBatch(4, &batch), 4u);
  EXPECT_EQ(q.ClaimBatch(100, &batch), 6u);  // the remainder, appended
  EXPECT_EQ(q.ClaimBatch(4, &batch), 0u);
  ASSERT_EQ(batch.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(batch[i].key, i + 1) << "FIFO order";
  }
  EXPECT_TRUE(q.empty());
}

// ---------- ServiceTier ----------

ServeConfig SmallConfig() {
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 2;
  cfg.keys = 400;
  cfg.ops = 400;
  cfg.clients = 4;
  cfg.think_cycles = 800;
  cfg.interarrival_cycles = 400;
  cfg.seed = 7;
  return cfg;
}

std::string RunTierJson(const ServeConfig& cfg) {
  auto system = MakeG1System(2);
  ServiceTier tier(system.get(), cfg);
  tier.Run();
  return tier.ToJson();
}

TEST(ServiceTierTest, ClosedLoopCompletesTheOfferedBudget) {
  ServeConfig cfg = SmallConfig();
  cfg.loop = LoopMode::kClosed;
  cfg.mix = *MixByName("a");
  cfg.mix_name = "a";
  auto system = MakeG1System(2);
  ServiceTier tier(system.get(), cfg);
  tier.Run();
  const ServiceStats global = tier.GlobalStats();
  // A deep-enough queue sheds nothing, so every offered attempt completes and
  // the budget is exactly ops per shard.
  EXPECT_EQ(global.offered, cfg.ops * cfg.shards);
  EXPECT_EQ(global.rejected, 0u);
  EXPECT_EQ(global.completed, cfg.ops * cfg.shards);
  EXPECT_GT(global.OpsPerSec(system->config().cpu_ghz, tier.serve_start()), 0.0);
}

TEST(ServiceTierTest, SojournIsWaitPlusServiceExactly) {
  ServeConfig cfg = SmallConfig();
  cfg.loop = LoopMode::kClosed;
  cfg.mix = *MixByName("f");  // rmw exercises read + write per request
  cfg.mix_name = "f";
  auto system = MakeG1System(2);
  ServiceTier tier(system.get(), cfg);
  tier.Run();
  for (const auto& shard : tier.shards()) {
    const ServiceStats& s = shard->stats();
    EXPECT_EQ(s.sojourn_total, s.wait_total + s.service_total) << "shard " << shard->index();
  }
  const ServiceStats global = tier.GlobalStats();
  EXPECT_EQ(global.sojourn_total, global.wait_total + global.service_total);
}

TEST(ServiceTierTest, GlobalAggregatesShards) {
  ServeConfig cfg = SmallConfig();
  cfg.loop = LoopMode::kOpen;
  cfg.mix = *MixByName("b");
  cfg.mix_name = "b";
  auto system = MakeG1System(2);
  ServiceTier tier(system.get(), cfg);
  tier.Run();
  uint64_t completed = 0, offered = 0, rejected = 0;
  Cycles last = 0;
  for (const auto& shard : tier.shards()) {
    completed += shard->stats().completed;
    offered += shard->stats().offered;
    rejected += shard->stats().rejected;
    last = std::max(last, shard->stats().last_completion);
  }
  const ServiceStats global = tier.GlobalStats();
  EXPECT_EQ(global.completed, completed);
  EXPECT_EQ(global.offered, offered);
  EXPECT_EQ(global.rejected, rejected);
  EXPECT_EQ(global.last_completion, last);
  EXPECT_EQ(global.offered, global.completed + global.rejected);
  EXPECT_EQ(global.sojourn.count(), global.completed);
}

TEST(ServiceTierTest, OpenLoopTightQueueShedsDeterministically) {
  ServeConfig cfg = SmallConfig();
  cfg.loop = LoopMode::kOpen;
  cfg.mix = *MixByName("a");
  cfg.mix_name = "a";
  cfg.queue_depth = 2;
  cfg.interarrival_cycles = 60;  // overload: arrivals outpace service
  const std::string first = RunTierJson(cfg);
  const std::string second = RunTierJson(cfg);
  EXPECT_EQ(first, second) << "same seed must reproduce every shed decision";
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(first, &parsed));
  const JsonValue* global = parsed.Find("global");
  ASSERT_NE(global, nullptr);
  EXPECT_GT(global->Find("rejected")->AsUint(), 0u) << "overload must shed";
  EXPECT_EQ(global->Find("offered")->AsUint(), cfg.ops * cfg.shards);
  EXPECT_EQ(global->Find("offered")->AsUint(),
            global->Find("completed")->AsUint() + global->Find("rejected")->AsUint());
}

TEST(ServiceTierTest, SojournLadderMatchesTheFlatTails) {
  // One quantile definition: the report's flat sojourn_pXX tails and the
  // latency.sojourn histogram ladder are the same numbers, globally and per
  // shard.
  ServeConfig cfg = SmallConfig();
  cfg.store = StoreKind::kFastFair;
  cfg.loop = LoopMode::kClosed;
  cfg.mix = *MixByName("b");
  cfg.mix_name = "b";
  cfg.keys = 2000;
  cfg.ops = 1000;
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(RunTierJson(cfg), &parsed));
  std::vector<std::pair<std::string, const JsonValue*>> scopes = {
      {"global", parsed.Find("global")}};
  for (const JsonValue& shard : parsed.Find("shards")->array) {
    scopes.emplace_back("shard " + std::to_string(shard.Find("shard")->AsUint()),
                        shard.Find("stats"));
  }
  ASSERT_EQ(scopes.size(), 1u + cfg.shards);
  for (const auto& [where, stats] : scopes) {
    ASSERT_NE(stats, nullptr) << where;
    const JsonValue* ladder = stats->Find("latency")->Find("sojourn");
    ASSERT_GT(ladder->Find("count")->AsUint(), 0u) << where;
    for (const char* p : {"p50", "p99", "p999"}) {
      EXPECT_EQ(ladder->Find(p)->AsUint(), stats->Find(std::string("sojourn_") + p)->AsUint())
          << where << " " << p;
    }
  }
}

TEST(ServiceTierTest, BatchSizeVariantsAllComplete) {
  for (const uint64_t batch : {uint64_t{1}, uint64_t{4}, uint64_t{32}}) {
    ServeConfig cfg = SmallConfig();
    cfg.loop = LoopMode::kClosed;
    cfg.mix = *MixByName("c");
    cfg.mix_name = "c";
    cfg.batch = batch;
    auto system = MakeG1System(2);
    ServiceTier tier(system.get(), cfg);
    tier.Run();
    EXPECT_EQ(tier.GlobalStats().completed, cfg.ops * cfg.shards) << "batch " << batch;
  }
}

TEST(ServiceTierTest, AttributionCoversTheServePhase) {
  ServeConfig cfg = SmallConfig();
  cfg.loop = LoopMode::kClosed;
  cfg.mix = *MixByName("b");
  cfg.mix_name = "b";
  auto system = MakeG1System(2);
  ServiceTier tier(system.get(), cfg);
  tier.Run();
  for (const auto& shard : tier.shards()) {
    const AttributionCollector& attr = shard->attribution();
    EXPECT_GT(attr.access_count(), 0u) << "shard " << shard->index();
    // Exact conservation per access: stage totals sum to end-to-end.
    EXPECT_EQ(attr.StageTotalSum(), attr.end_to_end_total());
    EXPECT_LE(attr.op_hist(AttributionCollector::kLoad).Quantile(0.5),
              attr.op_hist(AttributionCollector::kLoad).Quantile(0.999));
  }
}

TEST(ServiceTierTest, EveryStoreServesEveryMix) {
  // One shard, and three shard domains sharing one System.
  for (const uint32_t shards : {1u, 3u}) {
    for (const StoreKind store : {StoreKind::kCceh, StoreKind::kFastFair, StoreKind::kFlatLog}) {
      for (const char* mix : {"a", "b", "c", "d", "e", "f"}) {
        ServeConfig cfg = SmallConfig();
        cfg.keys = 150;
        cfg.ops = 150;
        cfg.shards = shards;
        cfg.store = store;
        cfg.mix = *MixByName(mix);
        cfg.mix_name = mix;
        cfg.scan_len = 8;
        auto system = MakeG1System(shards);
        ServiceTier tier(system.get(), cfg);
        tier.Run();
        const ServiceStats global = tier.GlobalStats();
        const std::string label =
            std::string(StoreName(store)) + "/" + mix + "/shards=" + std::to_string(shards);
        EXPECT_EQ(global.completed + global.rejected, global.offered) << label;
        EXPECT_GT(global.completed, 0u) << label;
        if (mix[0] == 'a' || mix[0] == 'b' || mix[0] == 'c' || mix[0] == 'f') {
          // No inserts: every key is preloaded on the shard it routes to.
          EXPECT_EQ(global.not_found, 0u) << label;
        }
      }
    }
  }
}

// ---------- Serve observability: windowed metrics, spans, timeline ----------

TEST(ServeMetricsTest, WindowedQuantilesMatchReferenceMerge) {
  // Feed completions out of simulated-time order, the way epoch replays and
  // multi-worker interleavings deliver them, and compare the materialized
  // windows against a reference model that buckets into per-window
  // Histograms directly.
  const Cycles kInterval = 100;
  const Cycles kOrigin = 1000;
  const Cycles kEnd = 1450;
  ServeMetrics m(kInterval);
  m.Begin(kOrigin);
  struct Ev {
    Cycles end;
    Cycles sojourn;
  };
  const std::vector<Ev> events = {{1005, 40}, {1399, 900}, {1100, 7},   {1250, 300}, {1199, 55},
                                  {1000, 1},  {1310, 11},  {1105, 220}, {1450, 9},   {1399, 12}};
  for (const Ev& e : events) {
    m.RecordCompletion(e.end, e.sojourn);
  }
  m.Finalize(kEnd);

  const size_t total = (kEnd - kOrigin) / kInterval + 1;  // 4 full + 1 partial
  std::vector<Histogram> ref(total);
  for (const Ev& e : events) {
    // Same clamp rule as the series: the closing window owns its right edge.
    const size_t idx = std::min<size_t>((e.end - kOrigin) / kInterval, total - 1);
    ref[idx].Add(e.sojourn);
  }
  ASSERT_EQ(m.windows().size(), total);
  for (size_t i = 0; i < total; ++i) {
    const ServeWindow& w = m.windows()[i];
    EXPECT_EQ(w.index, i);
    EXPECT_EQ(w.t_begin, kOrigin + i * kInterval);
    EXPECT_EQ(w.completed, ref[i].count()) << "window " << i;
    ASSERT_EQ(w.sojourn.count(), ref[i].count()) << "window " << i;
    for (const double q : {0.5, 0.99, 0.999}) {
      if (ref[i].count() > 0) {
        EXPECT_EQ(w.sojourn.Quantile(q), ref[i].Quantile(q)) << "window " << i << " q" << q;
      }
    }
  }
  EXPECT_TRUE(m.windows().back().partial);  // [1400, 1450) is half an interval
  EXPECT_EQ(m.windows().back().t_end, kEnd);
  EXPECT_EQ(m.total_completed(), events.size());
}

TEST(ServeMetricsTest, BoundaryEndEventsJoinTheClosingWindow) {
  // `end` on a window boundary: events stamped exactly at `end` belong to the
  // closing window, and the latest depth observation wins whatever the call
  // order.
  ServeMetrics m(/*interval_cycles=*/100);
  m.Begin(1000);
  m.ObserveQueueDepth(1180, 5);
  m.ObserveQueueDepth(1150, 3);  // earlier than 1180: does not replace it
  m.RecordCompletion(1199, 10);
  m.RecordCompletion(1200, 20);
  m.RecordAdmission(1200);
  m.Finalize(1200);
  ASSERT_EQ(m.windows().size(), 2u);
  EXPECT_EQ(m.windows()[0].queue_depth, 0u);
  const ServeWindow& last = m.windows()[1];
  EXPECT_EQ(last.t_end, 1200u);
  EXPECT_FALSE(last.partial);
  EXPECT_EQ(last.completed, 2u);
  EXPECT_EQ(last.sojourn.count(), 2u);
  EXPECT_EQ(last.admitted, 1u);
  EXPECT_EQ(last.queue_depth, 5u);

  ServeMetrics edge(/*interval_cycles=*/100);
  edge.Begin(1000);
  edge.ObserveQueueDepth(1150, 3);
  edge.ObserveQueueDepth(1200, 7);  // at `end`: the closing window's latest
  edge.Finalize(1200);
  ASSERT_EQ(edge.windows().size(), 2u);
  EXPECT_EQ(edge.windows()[1].queue_depth, 7u);
}

TEST(ServeTimelineTest, GlobalWindowsAreTheExactShardMerge) {
  ServeConfig cfg = SmallConfig();
  cfg.loop = LoopMode::kOpen;
  cfg.mix = *MixByName("a");
  cfg.mix_name = "a";
  ServeTimeline timeline(TimelineConfigFor(cfg, /*partitioned=*/false, /*interval=*/200));
  timeline.Begin(0);
  timeline.shard(0)->RecordCompletion(150, 40);
  timeline.shard(0)->RecordAdmission(10);
  timeline.shard(0)->ObserveQueueDepth(180, 3);
  timeline.shard(1)->RecordCompletion(150, 90);
  timeline.shard(1)->RecordShed(450);
  timeline.shard(1)->ObserveQueueDepth(170, 2);
  timeline.Finalize(500);

  ASSERT_EQ(timeline.global_windows().size(), 3u);
  const ServeWindow& w0 = timeline.global_windows()[0];
  EXPECT_EQ(w0.completed, 2u);
  EXPECT_EQ(w0.admitted, 1u);
  EXPECT_EQ(w0.queue_depth, 5u);  // gauge merges by shard sum
  Histogram ref;
  ref.Add(40);
  ref.Add(90);
  EXPECT_EQ(w0.sojourn.Quantile(0.5), ref.Quantile(0.5));
  EXPECT_EQ(w0.sojourn.Quantile(0.99), ref.Quantile(0.99));
  // Depth gauges carry forward through idle windows; event counts do not.
  const ServeWindow& w1 = timeline.global_windows()[1];
  EXPECT_EQ(w1.completed, 0u);
  EXPECT_EQ(w1.queue_depth, 5u);
  EXPECT_EQ(timeline.global_windows()[2].shed, 1u);
}

TEST(ServiceTierTest, SpanConservationIdentities) {
  ServeConfig cfg = SmallConfig();
  cfg.loop = LoopMode::kClosed;
  cfg.mix = *MixByName("f");  // rmw: every request reads and writes
  cfg.mix_name = "f";
  ServeTimeline timeline(TimelineConfigFor(cfg, /*partitioned=*/false, /*interval=*/20000));
  timeline.EnableSpans();
  auto system = MakeG1System(2);
  ServiceTier tier(system.get(), cfg);
  tier.AttachTimeline(&timeline);
  tier.Run();

  uint64_t total_spans = 0;
  for (uint32_t s = 0; s < cfg.shards; ++s) {
    const SpanRecorder* rec = timeline.spans(s);
    ASSERT_NE(rec, nullptr);
    const ServiceStats& stats = tier.shards()[s]->stats();
    EXPECT_EQ(rec->spans().size() + rec->dropped(), stats.completed) << "shard " << s;
    Cycles wait_sum = 0, service_sum = 0, sojourn_sum = 0;
    for (const RequestSpan& sp : rec->spans()) {
      ASSERT_LE(sp.arrival, sp.admit);
      ASSERT_LE(sp.admit, sp.start);
      ASSERT_LE(sp.start, sp.end);
      // Conservation, exact: the lifecycle partitions the sojourn, and the
      // stage breakdown partitions the service time.
      EXPECT_EQ(sp.wait() + sp.service(), sp.sojourn());
      Cycles staged = 0;
      for (int k = 0; k < AttributionCollector::kStageCount; ++k) {
        staged += sp.stages[k];
      }
      EXPECT_EQ(staged, sp.service());
      wait_sum += sp.wait();
      service_sum += sp.service();
      sojourn_sum += sp.sojourn();
    }
    // No spans dropped at this budget, so the span sums must reproduce the
    // shard's whole-run stats exactly.
    EXPECT_EQ(rec->dropped(), 0u);
    EXPECT_EQ(wait_sum, stats.wait_total) << "shard " << s;
    EXPECT_EQ(service_sum, stats.service_total) << "shard " << s;
    EXPECT_EQ(sojourn_sum, stats.sojourn_total) << "shard " << s;
    total_spans += rec->spans().size();
  }
  EXPECT_EQ(total_spans, tier.GlobalStats().completed);
}

TEST(ServiceTierTest, TimelineMatchesWholeRunTotals) {
  ServeConfig cfg = SmallConfig();
  cfg.loop = LoopMode::kOpen;
  cfg.mix = *MixByName("a");
  cfg.mix_name = "a";
  cfg.queue_depth = 2;
  cfg.interarrival_cycles = 60;  // overload: force sheds into the timeline
  ServeTimeline timeline(
      TimelineConfigFor(cfg, /*partitioned=*/false, /*interval=*/10000, /*slo_p99=*/1));
  auto system = MakeG1System(2);
  ServiceTier tier(system.get(), cfg);
  tier.AttachTimeline(&timeline);
  tier.Run();

  EXPECT_FALSE(timeline.truncated());
  const ServiceStats global = tier.GlobalStats();
  uint64_t completed = 0, admitted = 0, shed = 0;
  Cycles prev_end = tier.serve_start();
  for (const ServeWindow& w : timeline.global_windows()) {
    EXPECT_EQ(w.t_begin, prev_end) << "window " << w.index;
    prev_end = w.t_end;
    completed += w.completed;
    admitted += w.admitted;
    shed += w.shed;
    // The memory-plane series joins every window (same origin and interval).
    EXPECT_TRUE(w.has_mem) << "window " << w.index;
    // Per-window conservation against the shard series.
    uint64_t shard_completed = 0;
    for (uint32_t s = 0; s < cfg.shards; ++s) {
      ASSERT_LT(w.index, timeline.shard(s)->windows().size());
      shard_completed += timeline.shard(s)->windows()[w.index].completed;
    }
    EXPECT_EQ(w.completed, shard_completed) << "window " << w.index;
  }
  EXPECT_EQ(completed, global.completed);
  EXPECT_EQ(shed, global.rejected);
  EXPECT_EQ(admitted, global.offered - global.rejected);
  EXPECT_GT(shed, 0u) << "overload run must show sheds in the timeline";

  // With a 1-cycle SLO every traffic-bearing window is in violation.
  const ServeTimeline::SloSummary slo = timeline.Slo();
  EXPECT_EQ(slo.windows, timeline.global_windows().size());
  EXPECT_EQ(slo.violations, slo.windows_with_traffic);
  EXPECT_DOUBLE_EQ(slo.burn_rate, 1.0);

  // The serialized artifact parses and reproduces the totals.
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(timeline.ToJson(), &parsed));
  EXPECT_EQ(parsed.Find("totals")->Find("completed")->AsUint(), global.completed);
  EXPECT_EQ(parsed.Find("totals")->Find("shed")->AsUint(), global.rejected);
  EXPECT_FALSE(parsed.Find("truncated")->boolean);
}

TEST(ServeTimelineTest, FlushTruncatedYieldsWellFormedTimeline) {
  // The failed-point flush: a sweep point dying mid-serve must still leave a
  // contiguous, parseable timeline ending at the last observed event.
  ServeConfig cfg = SmallConfig();
  cfg.mix = *MixByName("a");
  cfg.mix_name = "a";
  cfg.loop = LoopMode::kOpen;
  ServeTimeline timeline(TimelineConfigFor(cfg, /*partitioned=*/false, /*interval=*/100));
  timeline.Begin(1000);
  timeline.shard(0)->RecordAdmission(1010);
  timeline.shard(0)->RecordCompletion(1350, 340);
  timeline.shard(1)->RecordShed(1120);

  timeline.FlushTruncated();
  EXPECT_TRUE(timeline.truncated());
  // Finalized at the max observed event (1350): windows [1000..1300) full,
  // [1300,1350) partial, and the flush is idempotent against a later close.
  ASSERT_EQ(timeline.global_windows().size(), 4u);
  EXPECT_EQ(timeline.global_windows().back().t_end, 1350u);
  EXPECT_TRUE(timeline.global_windows().back().partial);
  EXPECT_EQ(timeline.global_windows().back().completed, 1u);
  timeline.Finalize(99999);
  timeline.FlushTruncated();
  ASSERT_EQ(timeline.global_windows().size(), 4u);

  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(timeline.ToJson(), &parsed));
  EXPECT_TRUE(parsed.Find("truncated")->boolean);
  EXPECT_EQ(parsed.Find("end")->AsUint(), 1350u);

  // Degenerate flush: nothing observed, not even Begin. One zero-width
  // window keeps every downstream consumer's "non-empty series" invariant.
  ServeTimeline empty(TimelineConfigFor(cfg, /*partitioned=*/false, /*interval=*/100));
  empty.FlushTruncated();
  EXPECT_TRUE(empty.truncated());
  ASSERT_EQ(empty.global_windows().size(), 1u);
  EXPECT_EQ(empty.global_windows()[0].t_begin, empty.global_windows()[0].t_end);
  JsonValue empty_parsed;
  ASSERT_TRUE(JsonValue::Parse(empty.ToJson(), &empty_parsed));
}

}  // namespace
}  // namespace pmemsim