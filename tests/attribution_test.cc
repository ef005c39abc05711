// Latency-attribution tests: the conservation identity (per-stage cycle
// totals sum exactly to end-to-end latency, which sums exactly to the clock
// advance of the recorded operations), remainder crediting, the recording
// paths against the reference loop, and the JSON / critical-path renderings.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/trace/attribution.h"
#include "src/trace/json.h"

namespace pmemsim {

struct AttributionCollectorTestPeer {
  using C = AttributionCollector;

  // The reference specification of recording one operation: each stage's
  // cycles sit in one of the 11 slots, the slots sum to at most end_to_end,
  // the remainder joins kCore, and every non-zero slot adds its cycles to its
  // stage total and one sample to its stage histogram.
  static void RecordReference(C& c, C::Op op, Cycles end_to_end,
                              const Cycles (&slots)[C::kStageCount]) {
    Cycles attributed = 0;
    for (int s = 0; s < C::kStageCount; ++s) {
      attributed += slots[s];
    }
    PMEMSIM_CHECK(attributed <= end_to_end);
    ++c.access_count_;
    c.end_to_end_total_ += end_to_end;
    c.op_hist_[op].Add(end_to_end);
    for (int s = 0; s < C::kStageCount; ++s) {
      Cycles v = slots[s];
      if (s == C::kCore) {
        v += end_to_end - attributed;
      }
      if (v == 0) {
        continue;
      }
      c.stage_total_[s] += v;
      c.stage_hist_[s].Add(v);
    }
  }
};

namespace {

// Records one seeded random stream of operations twice: into `paths` the way
// ThreadContext records each kind of operation, and into `reference` through
// the reference loop with the same stages in their slots.
void RecordRandomStream(uint64_t seed, AttributionCollector* paths,
                        AttributionCollector* reference) {
  using C = AttributionCollector;
  Rng rng(seed);
  for (int i = 0; i < 20000; ++i) {
    Cycles slots[C::kStageCount] = {};
    C::Op op = C::kLoad;
    Cycles end_to_end = 0;
    switch (rng.NextBelow(8)) {
      case 0: {  // load hit: the level's stage is the whole latency (0 included)
        const auto stage = static_cast<C::Stage>(C::kL1Hit + rng.NextBelow(3));
        end_to_end = rng.NextBelow(80);
        paths->RecordStage(op, end_to_end, stage, end_to_end);
        slots[stage] = end_to_end;
        break;
      }
      case 1: {  // store hit: the level's latency, then the issue cost in core
        const auto stage = static_cast<C::Stage>(C::kL1Hit + rng.NextBelow(3));
        const Cycles hit = 1 + rng.NextBelow(80);
        op = C::kStore;
        end_to_end = hit + 1 + rng.NextBelow(4);
        paths->RecordStage(op, end_to_end, stage, hit);
        slots[stage] = hit;
        break;
      }
      case 2:  // posted store miss: all core
        op = C::kStore;
        end_to_end = 1 + rng.NextBelow(40);
        paths->RecordStage(op, end_to_end, C::kCore, 0);
        break;
      case 3: {  // nt-store or flush persist, maybe stalled on the store buffer
        op = rng.NextBelow(2) != 0 ? C::kNtStore : C::kFlush;
        const Cycles wpq = rng.NextBelow(2) != 0 ? 0 : rng.NextBelow(5000);
        end_to_end = wpq + 1 + rng.NextBelow(10);
        paths->RecordStage(op, end_to_end, C::kWpqWait, wpq);
        slots[C::kWpqWait] = wpq;
        if (rng.NextBelow(2) != 0) {
          const Cycles accept = 1 + rng.NextBelow(3000);
          paths->RecordAsyncAccept(accept);
          reference->RecordAsyncAccept(accept);
        }
        break;
      }
      case 4:  // eADR flush: a one-cycle no-op
        op = C::kFlush;
        end_to_end = 1;
        paths->RecordStage(op, end_to_end, C::kCore, 0);
        break;
      case 5: {  // fence: the wait for outstanding acceptances, then its cost
        op = C::kFence;
        const Cycles wait = rng.NextBelow(3) == 0 ? 0 : rng.NextBelow(20000);
        end_to_end = wait + 1 + rng.NextBelow(30);
        paths->RecordStage(op, end_to_end, C::kWpqWait, wait);
        slots[C::kWpqWait] = wait;
        break;
      }
      default: {  // full miss: any subset of the six memory stages
        MemStageBreakdown mem;
        const auto draw = [&rng](uint64_t bound) {
          return rng.NextBelow(2) != 0 ? 0 : rng.NextBelow(bound);
        };
        mem.imc_transit = draw(200);
        mem.rap_stall = draw(3000);
        mem.buffer = draw(400);
        mem.ait = draw(600);
        mem.media = draw(100000);
        mem.dram = draw(300);
        slots[C::kImcTransit] = mem.imc_transit;
        slots[C::kRapStall] = mem.rap_stall;
        slots[C::kReadBuffer] = mem.buffer;
        slots[C::kAitLookup] = mem.ait;
        slots[C::kMediaRead] = mem.media;
        slots[C::kDram] = mem.dram;
        end_to_end = rng.NextBelow(4) == 0 ? rng.NextBelow(50) : 0;  // the core remainder
        for (const Cycles v : slots) {
          end_to_end += v;
        }
        paths->RecordMiss(op, end_to_end, mem);
        break;
      }
    }
    AttributionCollectorTestPeer::RecordReference(*reference, op, end_to_end, slots);
  }
}

TEST(Attribution, RemainderIsCreditedToCore) {
  AttributionCollector attr;
  MemStageBreakdown mem;
  mem.media = 60;
  mem.ait = 10;
  attr.RecordMiss(AttributionCollector::kLoad, 100, mem);

  EXPECT_EQ(attr.access_count(), 1u);
  EXPECT_EQ(attr.end_to_end_total(), 100u);
  EXPECT_EQ(attr.stage_total(AttributionCollector::kMediaRead), 60u);
  EXPECT_EQ(attr.stage_total(AttributionCollector::kAitLookup), 10u);
  // The unattributed 30 cycles land in core, so the sum conserves exactly.
  EXPECT_EQ(attr.stage_total(AttributionCollector::kCore), 30u);
  EXPECT_EQ(attr.StageTotalSum(), attr.end_to_end_total());
}

TEST(Attribution, AsyncAcceptStaysOutsideConservation) {
  AttributionCollector attr;
  attr.RecordStage(AttributionCollector::kNtStore, 10, AttributionCollector::kWpqWait, 0);
  attr.RecordAsyncAccept(500);
  EXPECT_EQ(attr.end_to_end_total(), 10u);
  EXPECT_EQ(attr.StageTotalSum(), 10u);
  EXPECT_EQ(attr.async_accept_hist().count(), 1u);
  EXPECT_EQ(attr.async_accept_hist().Max(), 500u);
}

// The two inline recording paths against the reference loop: the same
// random streams must give byte-identical renderings.
TEST(Attribution, RecordingPathsMatchTheReferenceLoop) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    AttributionCollector paths;
    AttributionCollector reference;
    RecordRandomStream(seed, &paths, &reference);
    // The stream reached every op and every stage.
    for (int op = 0; op < AttributionCollector::kOpCount; ++op) {
      EXPECT_GT(paths.op_hist(static_cast<AttributionCollector::Op>(op)).count(), 0u) << op;
    }
    for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
      EXPECT_GT(paths.stage_total(static_cast<AttributionCollector::Stage>(s)), 0u) << s;
    }
    EXPECT_EQ(paths.ToJson(), reference.ToJson()) << "seed " << seed;
    EXPECT_EQ(paths.CriticalPathTable(), reference.CriticalPathTable()) << "seed " << seed;
    EXPECT_EQ(paths.StageTotalSum(), paths.end_to_end_total()) << "seed " << seed;
  }
}

// The identity the module exists for: drive a mixed trace through a real G1
// system and check cycles are conserved at both levels — stages vs end-to-end
// per the collector, and recorded end-to-end vs the thread's clock advance
// (every op used here records exactly its clock advance).
TEST(Attribution, MixedTraceConservesCyclesExactly) {
  auto system = MakeG1System(1);
  AttributionCollector attr;
  system->SetAttribution(&attr);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(512), kXPLineSize);
  const uint64_t lines = region.size / kCacheLineSize;

  const Cycles start = ctx.clock();
  uint64_t ops = 0;
  uint64_t sink = 0;
  for (uint64_t i = 0; i < 400; ++i) {
    const Addr a = region.At(((i * 7) % lines) * kCacheLineSize);
    switch (i % 5) {
      case 0:
        sink += ctx.Load64(a);
        ops += 1;
        break;
      case 1:
        ctx.Store64(a, i);
        ctx.Clwb(a);
        ctx.Sfence();
        ops += 3;
        break;
      case 2:
        ctx.NtStore64(a, i);
        ctx.Sfence();
        ops += 2;
        break;
      case 3:
        ctx.Store64(a, i);
        ctx.Clflushopt(a);
        ctx.Mfence();
        ops += 3;
        break;
      case 4:
        sink += ctx.Load64(a);
        ops += 1;
        break;
    }
  }
  (void)sink;

  // Every operation recorded exactly once.
  EXPECT_EQ(attr.access_count(), ops);
  uint64_t per_op = 0;
  for (int op = 0; op < AttributionCollector::kOpCount; ++op) {
    per_op += attr.op_hist(static_cast<AttributionCollector::Op>(op)).count();
  }
  EXPECT_EQ(per_op, ops);

  // Conservation level 1: stage totals sum to recorded end-to-end, exactly.
  EXPECT_EQ(attr.StageTotalSum(), attr.end_to_end_total());
  // Conservation level 2: recorded end-to-end sums to the clock advance of
  // the trace, exactly — no simulated cycle is double-counted or dropped.
  EXPECT_EQ(attr.end_to_end_total(), static_cast<uint64_t>(ctx.clock() - start));

  // The trace exercised the memory side: media reads, buffer service and
  // WPQ waits must all have accumulated cycles.
  EXPECT_GT(attr.stage_total(AttributionCollector::kMediaRead), 0u);
  EXPECT_GT(attr.stage_total(AttributionCollector::kReadBuffer), 0u);
  EXPECT_GT(attr.stage_total(AttributionCollector::kWpqWait), 0u);
  EXPECT_GT(attr.async_accept_hist().count(), 0u);
}

TEST(Attribution, JsonSharesSumToOneAndReconcile) {
  auto system = MakeG1System(1);
  AttributionCollector attr;
  system->SetAttribution(&attr);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(64), kXPLineSize);
  for (uint64_t i = 0; i < 200; ++i) {
    const Addr a = region.At((i * kCacheLineSize) % region.size);
    ctx.Store64(a, i);
    ctx.Clwb(a);
    ctx.Sfence();
  }

  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(attr.ToJson(), &v, &error)) << error;
  EXPECT_EQ(v.Find("accesses")->AsUint(), attr.access_count());
  EXPECT_EQ(v.Find("end_to_end_total")->AsUint(), attr.end_to_end_total());
  EXPECT_EQ(v.Find("stage_total_sum")->AsUint(), attr.StageTotalSum());

  // Only stages that accumulated cycles appear; omitted means exactly zero,
  // so the emitted totals/shares still reconcile with the global sums.
  const JsonValue* stages = v.Find("stages");
  ASSERT_NE(stages, nullptr);
  uint64_t total = 0;
  double share = 0.0;
  for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
    const auto stage_id = static_cast<AttributionCollector::Stage>(s);
    const char* name = AttributionCollector::StageName(stage_id);
    const JsonValue* stage = stages->Find(name);
    if (stage == nullptr) {
      EXPECT_EQ(attr.stage_total(stage_id), 0u) << name;
      continue;
    }
    EXPECT_EQ(stage->Find("total_cycles")->AsUint(), attr.stage_total(stage_id)) << name;
    total += stage->Find("total_cycles")->AsUint();
    share += stage->Find("share")->AsDouble();
    // A present stage always carries a populated percentile histogram.
    const JsonValue* hist = stage->Find("hist");
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_GT(hist->Find("count")->AsUint(), 0u) << name;
    EXPECT_NE(hist->Find("p50")->type, JsonValue::Type::kNull) << name;
  }
  EXPECT_EQ(total, attr.end_to_end_total());
  EXPECT_NEAR(share, 1.0, 1e-9);

  const JsonValue* async = v.Find("async");
  ASSERT_NE(async, nullptr);
  ASSERT_NE(async->Find("wpq_accept"), nullptr);

  // The critical-path rendering names the dominant stages.
  const std::string table = attr.CriticalPathTable();
  EXPECT_NE(table.find("stage"), std::string::npos);
  EXPECT_NE(table.find("core"), std::string::npos);
  EXPECT_NE(table.find("wpq_accept"), std::string::npos);
}

TEST(Attribution, CollectorAbsentMeansNoRecording) {
  // The default path: no collector installed. Nothing to assert about the
  // collector itself — this guards that a normal run doesn't require one.
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(4), kXPLineSize);
  ctx.Store64(region.At(0), 1);
  ctx.Clwb(region.At(0));
  ctx.Sfence();
  EXPECT_GT(ctx.clock(), 0u);

  // Installing a collector mid-run starts recording from that point only.
  AttributionCollector attr;
  system->SetAttribution(&attr);
  const Cycles t0 = ctx.clock();
  (void)ctx.Load64(region.At(0));
  EXPECT_EQ(attr.access_count(), 1u);
  EXPECT_EQ(attr.end_to_end_total(), static_cast<uint64_t>(ctx.clock() - t0));
}

}  // namespace
}  // namespace pmemsim
