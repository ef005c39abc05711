// Tests for ThreadContext (the x86-flavoured op set + clock) and the
// lockstep Scheduler.

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>

#include "src/api/pmem.h"
#include "src/core/platform.h"
#include "src/cpu/scheduler.h"
#include "src/trace/attribution.h"
#include "src/trace/recorder.h"
#include "src/trace/sampler.h"

namespace pmemsim {
namespace {

struct Fixture {
  std::unique_ptr<System> system;
  ThreadContext* ctx;
  PmRegion pm;
  PmRegion dram;

  explicit Fixture(Generation gen = Generation::kG1) {
    system = MakeSystem(gen, 1);
    ctx = &system->CreateThread();
    SetPrefetchers(*ctx, false, false, false);
    pm = system->AllocatePm(KiB(64));
    dram = system->AllocateDram(KiB(64));
  }
};

TEST(ThreadContextTest, DataRoundTrip) {
  Fixture f;
  f.ctx->Store64(f.pm.base, 0xABCD);
  EXPECT_EQ(f.ctx->Load64(f.pm.base), 0xABCDu);
  uint8_t blob[300];
  for (size_t i = 0; i < sizeof(blob); ++i) {
    blob[i] = static_cast<uint8_t>(i * 7);
  }
  f.ctx->Write(f.pm.base + 1000, blob, sizeof(blob));
  uint8_t out[300];
  f.ctx->Read(f.pm.base + 1000, out, sizeof(out));
  EXPECT_EQ(std::memcmp(blob, out, sizeof(blob)), 0);
}

TEST(ThreadContextTest, ClockMonotonicallyAdvances) {
  Fixture f;
  Cycles prev = f.ctx->clock();
  for (int i = 0; i < 100; ++i) {
    f.ctx->Load64(f.pm.base + static_cast<uint64_t>(i) * 512);
    EXPECT_GT(f.ctx->clock(), prev);
    prev = f.ctx->clock();
  }
}

TEST(ThreadContextTest, CachedLoadIsCheap) {
  Fixture f;
  f.ctx->Load64(f.pm.base);
  const Cycles before = f.ctx->clock();
  const Counters counters_before = f.system->counters();
  f.ctx->Load64(f.pm.base);
  EXPECT_EQ(f.ctx->clock() - before, G1Platform().cache.l1.hit_latency);
  const Counters delta = f.system->counters() - counters_before;
  EXPECT_EQ(delta.l1_hits, 1u);
  EXPECT_EQ(delta.cache_misses, 0u);
}

TEST(ThreadContextTest, MissCostsMemoryLatency) {
  Fixture f;
  f.ctx->Load64(f.pm.base);
  const Cycles before = f.ctx->clock();
  const Counters counters_before = f.system->counters();
  f.ctx->Load64(f.pm.base + KiB(32));
  EXPECT_GT(f.ctx->clock() - before, G1Platform().optane.media_read_latency);
  const Counters delta = f.system->counters() - counters_before;
  EXPECT_EQ(delta.l1_hits, 0u);
  EXPECT_EQ(delta.cache_misses, 1u);
}

TEST(ThreadContextTest, StoreMissIsPosted) {
  Fixture f;
  const Cycles before = f.ctx->clock();
  f.ctx->Store64(f.pm.base + KiB(48), 1);  // cold line
  EXPECT_LT(f.ctx->clock() - before, 100u);  // far below a media round trip
}

TEST(ThreadContextTest, NtStoreBypassesCaches) {
  Fixture f;
  f.ctx->Load64(f.pm.base);  // cache the line
  f.ctx->NtStore64(f.pm.base, 42);
  EXPECT_FALSE(f.ctx->hierarchy().ProbeAny(f.pm.base, f.ctx->clock()));
  EXPECT_EQ(f.ctx->Load64(f.pm.base), 42u);  // data still correct
}

TEST(ThreadContextTest, SfenceWaitsForAcceptance) {
  Fixture f;
  f.ctx->NtStore64(f.pm.base, 1);
  EXPECT_EQ(f.ctx->outstanding_persists(), 1u);
  const Cycles before = f.ctx->clock();
  f.ctx->Sfence();
  EXPECT_GT(f.ctx->clock(), before);
  EXPECT_EQ(f.ctx->outstanding_persists(), 0u);
}

TEST(ThreadContextTest, G1RapMfenceVsSfence) {
  // Distance-0 RAP: under sfence the load still hits the cache; under mfence
  // it stalls for the persist pipeline (Fig. 7 a).
  Fixture sfence_fix, mfence_fix;
  auto iteration = [](Fixture& f, bool use_mfence) {
    f.ctx->Store64(f.pm.base, 7);
    f.ctx->Clwb(f.pm.base);
    if (use_mfence) {
      f.ctx->Mfence();
    } else {
      f.ctx->Sfence();
    }
    const Cycles before = f.ctx->clock();
    f.ctx->Load64(f.pm.base);
    return f.ctx->clock() - before;
  };
  const Cycles sfence_load = iteration(sfence_fix, false);
  const Cycles mfence_load = iteration(mfence_fix, true);
  EXPECT_LT(sfence_load, 20u);
  EXPECT_GT(mfence_load, 1000u);
}

TEST(ThreadContextTest, G2ClwbLoadAlwaysHits) {
  Fixture f(Generation::kG2);
  f.ctx->Store64(f.pm.base, 7);
  f.ctx->Clwb(f.pm.base);
  f.ctx->Mfence();
  const Cycles before = f.ctx->clock();
  f.ctx->Load64(f.pm.base);
  EXPECT_LT(f.ctx->clock() - before, 20u);
}

TEST(ThreadContextTest, G2NtStoreStillRaps) {
  Fixture f(Generation::kG2);
  f.ctx->NtStore64(f.pm.base, 7);
  f.ctx->Mfence();
  const Cycles before = f.ctx->clock();
  f.ctx->Load64(f.pm.base);
  EXPECT_GT(f.ctx->clock() - before, 800u);
}

TEST(ThreadContextTest, LoadMultiOverlaps) {
  Fixture f;
  // Two independent cold lines: overlapped cost is far below the serial sum.
  Fixture serial;
  const Addr a = serial.pm.base, b = serial.pm.base + KiB(32);
  const Cycles s0 = serial.ctx->clock();
  serial.ctx->Load64(a);
  serial.ctx->Load64(b);
  const Cycles serial_cost = serial.ctx->clock() - s0;

  const Addr addrs[2] = {f.pm.base, f.pm.base + KiB(32)};
  const Cycles m0 = f.ctx->clock();
  f.ctx->LoadMulti(addrs, 2);
  const Cycles multi_cost = f.ctx->clock() - m0;
  EXPECT_LT(multi_cost, serial_cost);
  EXPECT_GE(multi_cost, serial_cost / 2);
}

TEST(ThreadContextTest, LoadMultiAttributesOnlyTheCriticalPath) {
  // Overlapped loads are one critical-path access: the attributed cycles
  // equal the clock advance, not the sum of the loads' latencies.
  Fixture f;
  AttributionCollector attribution;
  f.ctx->SetAttribution(&attribution);
  f.ctx->Load64(f.pm.base + KiB(64));  // one cache-hot line among the cold
  const Addr addrs[3] = {f.pm.base, f.pm.base + KiB(64), f.pm.base + KiB(32)};
  const uint64_t accesses_before = attribution.access_count();
  const uint64_t total_before = attribution.end_to_end_total();
  const Cycles m0 = f.ctx->clock();
  f.ctx->LoadMulti(addrs, 3);
  EXPECT_EQ(attribution.access_count() - accesses_before, 1u);
  EXPECT_EQ(attribution.end_to_end_total() - total_before, f.ctx->clock() - m0);
  EXPECT_EQ(attribution.StageTotalSum(), attribution.end_to_end_total());
}

TEST(ThreadContextTest, StreamCopyMovesData) {
  Fixture f;
  uint8_t src[kXPLineSize];
  for (size_t i = 0; i < sizeof(src); ++i) {
    src[i] = static_cast<uint8_t>(255 - i % 251);
  }
  f.system->backing().Write(f.pm.base, src, sizeof(src));
  f.ctx->StreamCopyXPLine(f.pm.base, f.dram.base);
  uint8_t dst[kXPLineSize];
  f.system->backing().Read(f.dram.base, dst, sizeof(dst));
  EXPECT_EQ(std::memcmp(src, dst, sizeof(src)), 0);
}

TEST(ThreadContextTest, SmtScaleInflatesCoreWork) {
  Fixture f;
  f.ctx->Load64(f.pm.base);
  const Cycles base_before = f.ctx->clock();
  f.ctx->Load64(f.pm.base);
  const Cycles unscaled = f.ctx->clock() - base_before;
  f.ctx->SetSmtScale(2.0);
  const Cycles scaled_before = f.ctx->clock();
  f.ctx->Load64(f.pm.base);
  EXPECT_EQ(f.ctx->clock() - scaled_before, 2 * unscaled);
}

TEST(ThreadContextTest, StoreBufferBackpressure) {
  Fixture f;
  // Unfenced persists beyond the store-buffer depth force waiting.
  const uint32_t depth = G1Platform().cpu.store_buffer_depth;
  for (uint32_t i = 0; i < depth + 10; ++i) {
    f.ctx->NtStore64(f.pm.base + i * kCacheLineSize, i);
  }
  EXPECT_LE(f.ctx->outstanding_persists(), depth);
}

TEST(SchedulerTest, InterleavesByClock) {
  auto system = MakeG1System(1);
  ThreadContext& a = system->CreateThread();
  ThreadContext& b = system->CreateThread();
  std::vector<int> order;
  int na = 0, nb = 0;
  std::vector<SimJob> jobs;
  jobs.push_back({&a, [&]() {
                    if (na >= 3) {
                      return StepResult::kDone;
                    }
                    order.push_back(0);
                    a.AddCompute(100);
                    ++na;
                    return StepResult::kProgress;
                  }});
  jobs.push_back({&b, [&]() {
                    if (nb >= 3) {
                      return StepResult::kDone;
                    }
                    order.push_back(1);
                    b.AddCompute(100);
                    ++nb;
                    return StepResult::kProgress;
                  }});
  const Cycles end = Scheduler::Run(jobs);
  EXPECT_EQ(end, 300u);
  // Equal step costs must interleave strictly.
  const std::vector<int> expected{0, 1, 0, 1, 0, 1};
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, CollidingClocksBreakTiesByJobIndex) {
  // The heap scheduler keys on (clock, job index), reproducing the linear
  // scan's first-minimum-wins rule: with N jobs at identical clocks, each
  // round steps them in submission order. The golden sequence below is what
  // the pre-heap scheduler produced.
  auto system = MakeG1System(1);
  constexpr int kJobs = 5;
  std::vector<ThreadContext*> ctxs;
  for (int i = 0; i < kJobs; ++i) {
    ctxs.push_back(&system->CreateThread());
  }
  std::vector<int> order;
  std::vector<int> counts(kJobs, 0);
  std::vector<SimJob> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back({ctxs[i], [&, i]() {
                      if (counts[i] >= 3) {
                        return StepResult::kDone;
                      }
                      order.push_back(i);
                      ctxs[i]->AddCompute(50);  // all clocks collide every round
                      ++counts[i];
                      return StepResult::kProgress;
                    }});
  }
  Scheduler::Run(jobs);
  const std::vector<int> expected{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, BatchBoundaryTieYieldsToSmallerJobIndex) {
  // Pins the batch-advance tie rule at the exact boundary: job 0 batches up
  // from behind and its clock lands *equal* to parked job 1's. The batch
  // comparison is (clock, index) < runner-up, so the equal-clock step still
  // belongs to job 0 (smaller index) — the same first-minimum-wins order the
  // per-step linear scan produced. A strict clock-only comparison would hand
  // the tied step to job 1 and shift every subsequent interleaving.
  auto system = MakeG1System(1);
  ThreadContext& a = system->CreateThread();
  ThreadContext& b = system->CreateThread();
  b.AdvanceTo(50);
  std::vector<int> order;
  int na = 0, nb = 0;
  std::vector<SimJob> jobs;
  jobs.push_back({&a, [&]() {
                    if (na >= 4) {
                      return StepResult::kDone;
                    }
                    order.push_back(0);
                    a.AddCompute(25);
                    ++na;
                    return StepResult::kProgress;
                  }});
  jobs.push_back({&b, [&]() {
                    if (nb >= 4) {
                      return StepResult::kDone;
                    }
                    order.push_back(1);
                    b.AddCompute(25);
                    ++nb;
                    return StepResult::kProgress;
                  }});
  Scheduler::Run(jobs);
  // Clocks: A 0->25->50 (ties B), A again at 50, B at 50 (ties A at 75),
  // A at 75 (done), then B runs out alone.
  const std::vector<int> expected{0, 0, 0, 1, 0, 1, 1, 1};
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, IdenticalRunsProduceIdenticalInterleavings) {
  // Two runs of the same mixed-cost workload must interleave identically —
  // the heap must not introduce any ordering dependence on its internal
  // layout. Step costs are chosen so clocks repeatedly collide.
  auto run_once = [] {
    auto system = MakeG1System(1);
    constexpr int kJobs = 4;
    const Cycles costs[kJobs] = {30, 60, 30, 90};
    std::vector<ThreadContext*> ctxs;
    for (int i = 0; i < kJobs; ++i) {
      ctxs.push_back(&system->CreateThread());
    }
    std::vector<int> order;
    std::vector<int> counts(kJobs, 0);
    std::vector<SimJob> jobs;
    for (int i = 0; i < kJobs; ++i) {
      jobs.push_back({ctxs[i], [&, i]() {
                        if (counts[i] >= 12) {
                          return StepResult::kDone;
                        }
                        order.push_back(i);
                        ctxs[i]->AddCompute(costs[i]);
                        ++counts[i];
                        return StepResult::kProgress;
                      }});
    }
    Scheduler::Run(jobs);
    return order;
  };
  const std::vector<int> first = run_once();
  const std::vector<int> second = run_once();
  ASSERT_EQ(first.size(), 4u * 12u);
  EXPECT_EQ(first, second);
}

TEST(SchedulerTest, BatchedFastPathMatchesGoldenSequence) {
  // One job far behind the others: the sole-minimum fast path lets it step
  // repeatedly without heap churn, but the observable order must equal the
  // per-step linear scan's. Job 0 steps in 10-cycle increments while jobs 1
  // and 2 sit at clock 100/200 until job 0 passes them.
  auto system = MakeG1System(1);
  ThreadContext& a = system->CreateThread();
  ThreadContext& b = system->CreateThread();
  ThreadContext& c = system->CreateThread();
  b.AdvanceTo(100);
  c.AdvanceTo(200);
  std::vector<int> order;
  int na = 0, nb = 0, nc = 0;
  std::vector<SimJob> jobs;
  jobs.push_back({&a, [&]() {
                    if (na >= 25) {
                      return StepResult::kDone;
                    }
                    order.push_back(0);
                    a.AddCompute(10);
                    ++na;
                    return StepResult::kProgress;
                  }});
  jobs.push_back({&b, [&]() {
                    if (nb >= 1) {
                      return StepResult::kDone;
                    }
                    order.push_back(1);
                    b.AddCompute(500);
                    ++nb;
                    return StepResult::kProgress;
                  }});
  jobs.push_back({&c, [&]() {
                    if (nc >= 1) {
                      return StepResult::kDone;
                    }
                    order.push_back(2);
                    c.AddCompute(500);
                    ++nc;
                    return StepResult::kProgress;
                  }});
  Scheduler::Run(jobs);
  EXPECT_EQ(order.size(), 27u);
  EXPECT_EQ(na, 25);
  EXPECT_EQ(nb, 1);
  EXPECT_EQ(nc, 1);
  // Golden order from a reference linear scan with first-minimum-wins ties —
  // exactly the pre-heap scheduler's policy.
  std::vector<int> golden;
  struct J {
    Cycles clock;
    int steps_left;
    Cycles cost;
  };
  J sim[3] = {{0, 25, 10}, {100, 1, 500}, {200, 1, 500}};
  while (sim[0].steps_left || sim[1].steps_left || sim[2].steps_left) {
    int best = -1;
    for (int i = 0; i < 3; ++i) {
      if (sim[i].steps_left &&
          (best < 0 || sim[i].clock < sim[best].clock)) {
        best = i;
      }
    }
    golden.push_back(best);
    sim[best].clock += sim[best].cost;
    --sim[best].steps_left;
  }
  EXPECT_EQ(order, golden);
}

TEST(SchedulerTest, SlowThreadYieldsToFast) {
  auto system = MakeG1System(1);
  ThreadContext& slow = system->CreateThread();
  ThreadContext& fast = system->CreateThread();
  int ns = 0, nf = 0;
  std::vector<SimJob> jobs;
  jobs.push_back({&slow, [&]() {
                    if (ns >= 1) {
                      return StepResult::kDone;
                    }
                    slow.AddCompute(1000);
                    ++ns;
                    return StepResult::kProgress;
                  }});
  jobs.push_back({&fast, [&]() {
                    if (nf >= 10) {
                      return StepResult::kDone;
                    }
                    fast.AddCompute(10);
                    ++nf;
                    return StepResult::kProgress;
                  }});
  Scheduler::Run(jobs);
  EXPECT_EQ(ns, 1);
  EXPECT_EQ(nf, 10);
}

// ---------- eADR semantics ----------

struct EadrFixture {
  std::unique_ptr<System> system = std::make_unique<System>(G2EadrPlatform(), 1);
  ThreadContext* ctx = &system->CreateThread();
  PmRegion pm = system->AllocatePm(KiB(64));

  EadrFixture() { SetPrefetchers(*ctx, false, false, false); }
};

TEST(EadrTest, FlushesAreLatencyFreeNoOps) {
  // With the caches inside the persistence domain, clwb and clflushopt do
  // nothing but advance the clock by a cycle — and queue no persist.
  EadrFixture f;
  f.ctx->Store64(f.pm.base, 0xE1);
  Cycles t0 = f.ctx->clock();
  f.ctx->Clwb(f.pm.base);
  EXPECT_EQ(f.ctx->clock() - t0, 1u);
  t0 = f.ctx->clock();
  f.ctx->Clflushopt(f.pm.base);
  EXPECT_EQ(f.ctx->clock() - t0, 1u);
  EXPECT_EQ(f.ctx->outstanding_persists(), 0u);
  EXPECT_EQ(f.system->counters().imc_write_bytes, 0u);
  // Contrast: the same sequence on plain G2 issues a real write-back.
  Fixture g2(Generation::kG2);
  g2.ctx->Store64(g2.pm.base, 0xE1);
  g2.ctx->Clwb(g2.pm.base);
  EXPECT_EQ(g2.ctx->outstanding_persists(), 1u);
}

TEST(EadrTest, FencesStillOrderWpqDrains) {
  // eADR removes flushes, not fences: an nt-store still traverses the iMC and
  // sfence/mfence must still wait for its WPQ drain.
  EadrFixture f;
  f.ctx->NtStore64(f.pm.base, 0xE2);
  EXPECT_GT(f.ctx->outstanding_persists(), 0u);
  f.ctx->Sfence();
  EXPECT_EQ(f.ctx->outstanding_persists(), 0u);
  f.ctx->NtStore64(f.pm.base + 64, 0xE3);
  EXPECT_GT(f.ctx->outstanding_persists(), 0u);
  f.ctx->Mfence();
  EXPECT_EQ(f.ctx->outstanding_persists(), 0u);
}

TEST(EadrTest, PmemHasAutoFlushAgreesWithFlushBehavior) {
  // The API-level predicate must match what ThreadContext actually does:
  // auto-flush platforms are exactly those whose Clwb queues no persist.
  for (const auto& platform : {G1Platform(), G2Platform(), G2EadrPlatform()}) {
    auto system = std::make_unique<System>(platform, 1);
    ThreadContext& ctx = system->CreateThread();
    SetPrefetchers(ctx, false, false, false);
    const PmRegion pm = system->AllocatePm(KiB(4));
    ctx.Store64(pm.base, 1);
    ctx.Clwb(pm.base);
    const bool flush_was_noop = ctx.outstanding_persists() == 0;
    EXPECT_EQ(PmemHasAutoFlush(*system), flush_was_noop) << platform.name;
    ctx.Sfence();
  }
}

// ---------- one persist instruction, observed from outside the core ----------

// Everything one flush or nt-store changes that a caller can see.
struct PersistEffect {
  Cycles clock_delta = 0;
  size_t outstanding = 0;
  uint64_t imc_write_bytes = 0;
  bool cached_after_dispatch = false;  // ProbeAny once the dispatch window passed
  uint64_t attributed = 0;             // attribution count of the op's class
  uint64_t wpq_wait = 0;
  TraceOp recorded = TraceOp::kOpCount;  // the op's one trace record

  bool operator==(const PersistEffect& o) const {
    return clock_delta == o.clock_delta && outstanding == o.outstanding &&
           imc_write_bytes == o.imc_write_bytes &&
           cached_after_dispatch == o.cached_after_dispatch && attributed == o.attributed &&
           wpq_wait == o.wpq_wait && recorded == o.recorded;
  }
};

std::ostream& operator<<(std::ostream& os, const PersistEffect& e) {
  return os << "{clock+" << e.clock_delta << " outstanding=" << e.outstanding
            << " imc_write_bytes=" << e.imc_write_bytes
            << " cached=" << e.cached_after_dispatch << " attributed=" << e.attributed
            << " wpq_wait=" << e.wpq_wait << " op=" << TraceOpName(e.recorded) << "}";
}

// Prepares the line at pm.base (dirty via a store, or clean via a load), then
// runs `op` with attribution and a recorder installed and reports its effect.
template <typename Op>
PersistEffect ObservePersistOp(const PlatformConfig& platform, bool dirty,
                               AttributionCollector::Op kind, Op&& op) {
  System system(platform, 1);
  ThreadContext& ctx = system.CreateThread();
  SetPrefetchers(ctx, false, false, false);
  const PmRegion pm = system.AllocatePm(KiB(4));
  if (dirty) {
    ctx.Store64(pm.base, 0x5A);
  } else {
    ctx.Load64(pm.base);
  }
  AttributionCollector attribution;
  TraceRecorder recorder;
  ctx.SetAttribution(&attribution);
  ctx.SetTraceRecorder(&recorder, 0);
  const Counters before = system.counters();
  const Cycles t0 = ctx.clock();
  op(ctx, pm.base);

  PersistEffect e;
  e.clock_delta = ctx.clock() - t0;
  e.outstanding = ctx.outstanding_persists();
  e.imc_write_bytes = (system.counters() - before).imc_write_bytes;
  e.cached_after_dispatch =
      ctx.hierarchy().ProbeAny(pm.base, t0 + platform.cache.clwb_dispatch_delay);
  e.attributed = attribution.op_hist(kind).count();
  e.wpq_wait = attribution.stage_total(AttributionCollector::kWpqWait);
  const TraceSegment segment = recorder.Take("persist_op", {});
  EXPECT_EQ(segment.records.size(), 1u);
  if (!segment.records.empty()) {
    e.recorded = segment.records.back().op;
  }
  return e;
}

TEST(PersistOpTest, FlushEffectPerPlatformOpAndLineState) {
  // clwb and clflushopt differ only in whether the line stays cached: G1
  // invalidates after the dispatch window for both, G2's clwb retains the
  // line, and under eADR both retire in one cycle with no write-back.
  struct Case {
    const char* platform;
    bool clwb;
    bool dirty;
    PersistEffect want;
  };
  const Case cases[] = {
      {"g1", true, true, {2, 1, 64, false, 1, 0, TraceOp::kClwb}},
      {"g1", true, false, {2, 0, 0, false, 1, 0, TraceOp::kClwb}},
      {"g1", false, true, {2, 1, 64, false, 1, 0, TraceOp::kClflushopt}},
      {"g1", false, false, {2, 0, 0, false, 1, 0, TraceOp::kClflushopt}},
      {"g2", true, true, {2, 1, 64, true, 1, 0, TraceOp::kClwb}},
      {"g2", true, false, {2, 0, 0, true, 1, 0, TraceOp::kClwb}},
      {"g2", false, true, {2, 1, 64, false, 1, 0, TraceOp::kClflushopt}},
      {"g2", false, false, {2, 0, 0, false, 1, 0, TraceOp::kClflushopt}},
      {"g2-eadr", true, true, {1, 0, 0, true, 1, 0, TraceOp::kClwb}},
      {"g2-eadr", true, false, {1, 0, 0, true, 1, 0, TraceOp::kClwb}},
      {"g2-eadr", false, true, {1, 0, 0, true, 1, 0, TraceOp::kClflushopt}},
      {"g2-eadr", false, false, {1, 0, 0, true, 1, 0, TraceOp::kClflushopt}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.platform) + (c.clwb ? " clwb" : " clflushopt") +
                 (c.dirty ? " dirty" : " clean"));
    const auto platform = PlatformByName(c.platform);
    ASSERT_TRUE(platform.has_value());
    auto flush = [&c](ThreadContext& ctx, Addr a) {
      if (c.clwb) {
        ctx.Clwb(a);
      } else {
        ctx.Clflushopt(a);
      }
    };
    EXPECT_EQ(ObservePersistOp(*platform, c.dirty, AttributionCollector::kFlush, flush), c.want);
  }
}

TEST(PersistOpTest, NtStoreEffectPerEntryPoint) {
  // Every nt-store entry point times each covered line the same way: the
  // line leaves the caches and one 64 B write enters the WPQ.
  const PlatformConfig g1 = G1Platform();
  uint8_t line[kCacheLineSize];
  std::memset(line, 0xC3, sizeof(line));
  auto nt_line = [&line](ThreadContext& ctx, Addr a) { ctx.NtStoreLine(a, line); };
  auto nt_word = [](ThreadContext& ctx, Addr a) { ctx.NtStore64(a + 8, 7); };
  // 60 bytes from offset 32 straddle two lines: two timed line writes.
  auto nt_range = [&line](ThreadContext& ctx, Addr a) { ctx.NtWrite(a + 32, line, 60); };
  EXPECT_EQ(ObservePersistOp(g1, true, AttributionCollector::kNtStore, nt_line),
            (PersistEffect{6, 1, 64, false, 1, 0, TraceOp::kNtStoreLine}));
  EXPECT_EQ(ObservePersistOp(g1, false, AttributionCollector::kNtStore, nt_word),
            (PersistEffect{6, 1, 64, false, 1, 0, TraceOp::kNtStore64}));
  EXPECT_EQ(ObservePersistOp(g1, true, AttributionCollector::kNtStore, nt_range),
            (PersistEffect{12, 2, 128, false, 2, 0, TraceOp::kNtWrite}));
}

// --- RunUntil (epoch-window) form of the scheduler -------------------------

// Builds a deterministic multi-job workload whose jobs advance by differing,
// phase-shifted strides (so clocks collide, interleave, and overtake), records
// the exact step order, and returns (order, final clocks).
struct WindowedWorkload {
  std::unique_ptr<System> system = MakeG1System(1);
  std::vector<ThreadContext*> ctxs;
  std::vector<int> counts;
  std::vector<int> order;
  std::vector<SimJob> jobs;

  WindowedWorkload(int n_jobs, int steps_per_job) {
    counts.assign(n_jobs, 0);
    for (int i = 0; i < n_jobs; ++i) {
      ctxs.push_back(&system->CreateThread());
    }
    for (int i = 0; i < n_jobs; ++i) {
      jobs.push_back({ctxs[i], [this, i, steps_per_job]() {
                        if (counts[i] >= steps_per_job) {
                          return StepResult::kDone;
                        }
                        order.push_back(i);
                        // Strides 40/50/60/... with a collision-rich pattern.
                        ctxs[i]->AddCompute(40 + 10 * (i % 3) + (counts[i] % 2) * 30);
                        ++counts[i];
                        return StepResult::kProgress;
                      }});
    }
  }
};

TEST(SchedulerTest, RunUntilWindowSplitReplaysIdenticalInterleaving) {
  // Splitting a run into ANY sequence of epoch windows must replay the exact
  // (clock, job-index) step order of the single-shot Run() — the property the
  // partitioned serving engine's determinism contract rests on.
  WindowedWorkload golden(5, 8);
  Scheduler::Run(golden.jobs);

  for (const Cycles window : {Cycles{1}, Cycles{37}, Cycles{64}, Cycles{1000}}) {
    WindowedWorkload split(5, 8);
    Scheduler scheduler(&split.jobs);
    Cycles limit = window;
    while (!scheduler.AllDone()) {
      scheduler.RunUntil(limit);
      limit += window;
    }
    EXPECT_EQ(split.order, golden.order) << "window=" << window;
    for (size_t i = 0; i < split.ctxs.size(); ++i) {
      EXPECT_EQ(split.ctxs[i]->clock(), golden.ctxs[i]->clock()) << "window=" << window;
    }
  }
}

TEST(SchedulerTest, RunUntilNoLimitMatchesRun) {
  WindowedWorkload golden(4, 6);
  Scheduler::Run(golden.jobs);

  WindowedWorkload once(4, 6);
  Scheduler scheduler(&once.jobs);
  EXPECT_FALSE(scheduler.AllDone());
  scheduler.RunUntil(Scheduler::kNoLimit);
  EXPECT_TRUE(scheduler.AllDone());
  EXPECT_EQ(scheduler.NextEventTime(), Scheduler::kNoLimit);
  EXPECT_EQ(once.order, golden.order);
}

TEST(SchedulerTest, RunUntilStopsAtWindowEdgeAndResumesInOrder) {
  // A job parked exactly AT the window edge must not step in that window,
  // and the next window must resume ties in (clock, job-index) order.
  auto system = MakeG1System(1);
  ThreadContext& a = system->CreateThread();
  ThreadContext& b = system->CreateThread();
  std::vector<int> order;
  int na = 0, nb = 0;
  std::vector<SimJob> jobs;
  jobs.push_back({&a, [&]() {
                    if (na >= 2) {
                      return StepResult::kDone;
                    }
                    order.push_back(0);
                    a.AddCompute(100);
                    ++na;
                    return StepResult::kProgress;
                  }});
  jobs.push_back({&b, [&]() {
                    if (nb >= 2) {
                      return StepResult::kDone;
                    }
                    order.push_back(1);
                    b.AddCompute(100);
                    ++nb;
                    return StepResult::kProgress;
                  }});
  Scheduler scheduler(&jobs);
  scheduler.RunUntil(100);  // both jobs step once, land exactly at 100
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(scheduler.NextEventTime(), 100u);  // parked at the edge, not run
  scheduler.RunUntil(100);                     // zero-width: must be a no-op
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  scheduler.RunUntil(201);  // tie at 100 resolves by job index, then at 200
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
  scheduler.RunUntil(Scheduler::kNoLimit);  // drain the kDone returns
  EXPECT_TRUE(scheduler.AllDone());
}

TEST(SchedulerTest, RunUntilJobWithNoWorkDoesNotStallWindow) {
  // A job that parks itself far past every window must not be stepped again
  // until a window reaches its clock — idle domains cost one step, not spins.
  auto system = MakeG1System(1);
  ThreadContext& busy = system->CreateThread();
  ThreadContext& idle = system->CreateThread();
  int busy_steps = 0, idle_steps = 0;
  std::vector<SimJob> jobs;
  jobs.push_back({&busy, [&]() {
                    if (busy_steps >= 50) {
                      return StepResult::kDone;
                    }
                    ++busy_steps;
                    busy.AddCompute(10);
                    return StepResult::kProgress;
                  }});
  jobs.push_back({&idle, [&]() {
                    ++idle_steps;
                    idle.AdvanceTo(idle.clock() + 10000);  // park far ahead
                    return idle_steps >= 2 ? StepResult::kDone : StepResult::kProgress;
                  }});
  Scheduler scheduler(&jobs);
  for (Cycles limit = 100; limit <= 500; limit += 100) {
    scheduler.RunUntil(limit);
  }
  EXPECT_EQ(busy_steps, 50);
  EXPECT_EQ(idle_steps, 1);  // parked at 10000; windows up to 500 skip it
}

// One sampled job issuing loads, stores and flushes; logs the clock and the
// sample count seen at the start of every step.
struct SampledOneJob {
  std::unique_ptr<System> system = MakeG1System(1);
  ThreadContext* ctx = &system->CreateThread();
  PmRegion pm = system->AllocatePm(KiB(64));
  Sampler sampler{&system->counters(), /*interval_cycles=*/5000};
  std::vector<std::pair<Cycles, size_t>> steps;
  std::vector<SimJob> jobs;

  SampledOneJob() {
    jobs.push_back({ctx, [this]() {
                      const uint64_t n = steps.size();
                      if (n == 300) {
                        return StepResult::kDone;
                      }
                      steps.emplace_back(ctx->clock(), sampler.samples().size());
                      const Addr a = pm.At((n * 7 % 1024) * kCacheLineSize);
                      ctx->Store64(a, n);
                      if (n % 3 == 0) {
                        ctx->Clwb(a);
                        ctx->Sfence();
                      } else {
                        ctx->Load64(pm.At((n * 13 % 1024) * kCacheLineSize));
                      }
                      return StepResult::kProgress;
                    }});
  }
};

TEST(SchedulerTest, OneJobRunUntilWindowsMatchRunStepForStep) {
  // With a single job, RunUntil must still observe the sampler before every
  // step, park the job at each window edge and pop it on kDone: any window
  // split replays Run() step for step, sample series included.
  SampledOneJob golden;
  Scheduler::Run(golden.jobs, &golden.sampler);
  golden.sampler.Finalize(golden.ctx->clock());
  ASSERT_EQ(golden.steps.size(), 300u);
  ASSERT_GT(golden.sampler.samples().size(), 3u);
  // The sampler saw each step's start clock: every boundary at or below it
  // has closed its interval.
  for (const auto& [clock, samples] : golden.steps) {
    ASSERT_EQ(samples, clock / golden.sampler.interval_cycles()) << "clock=" << clock;
  }

  for (const Cycles window : {Cycles{1}, Cycles{333}, Cycles{5000}, Cycles{100000}}) {
    SampledOneJob split;
    Scheduler scheduler(&split.jobs);
    Cycles limit = window;
    size_t started = 0;
    while (!scheduler.AllDone()) {
      scheduler.RunUntil(limit, &split.sampler);
      // Exactly the steps that start below the window edge have run.
      while (started < golden.steps.size() && golden.steps[started].first < limit) {
        ++started;
      }
      ASSERT_EQ(split.steps.size(), started) << "window=" << window << " limit=" << limit;
      EXPECT_TRUE(scheduler.AllDone() || scheduler.NextEventTime() >= limit);
      limit += window;
    }
    split.sampler.Finalize(split.ctx->clock());
    EXPECT_EQ(split.steps, golden.steps) << "window=" << window;
    EXPECT_EQ(split.ctx->clock(), golden.ctx->clock()) << "window=" << window;
    EXPECT_EQ(split.sampler.ToJson(), golden.sampler.ToJson()) << "window=" << window;
  }
}

}  // namespace
}  // namespace pmemsim
