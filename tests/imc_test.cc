// Tests for the memory controller: WPQ acceptance/stall semantics, PM
// interleave routing, NUMA hop, and the same-line persist ordering.

#include <gtest/gtest.h>

#include "src/common/config.h"
#include "src/imc/memory_controller.h"
#include "src/imc/wpq.h"
#include "src/trace/registry.h"

namespace pmemsim {
namespace {

// A controller on its own counter registry; totals() is the machine-wide sum
// over its iMC, DIMM and DRAM scopes.
struct McFixture {
  CounterRegistry registry;
  MemoryController mc;

  McFixture(const PlatformConfig& platform, uint32_t optane_dimms)
      : mc(platform, &registry, optane_dimms) {}

  Counters totals() const { return registry.Aggregate(); }
};

TEST(WpqTest, AcceptanceBeforeDrain) {
  Counters c;
  Wpq wpq({16, 150, 30}, &c);
  const Wpq::AcceptResult r = wpq.Accept(1000);
  EXPECT_EQ(r.accepted_at, 1150u);
  EXPECT_EQ(r.drained_at, 1180u);
}

TEST(WpqTest, DrainSerializes) {
  Counters c;
  Wpq wpq({16, 150, 30}, &c);
  const Wpq::AcceptResult a = wpq.Accept(0);
  const Wpq::AcceptResult b = wpq.Accept(0);
  EXPECT_EQ(b.drained_at, a.drained_at + 30);
}

TEST(WpqTest, FullQueueStallsAcceptance) {
  Counters c;
  Wpq wpq({4, 10, 100}, &c);
  Cycles last_accept = 0;
  for (int i = 0; i < 4; ++i) {
    last_accept = wpq.Accept(0).accepted_at;
  }
  EXPECT_EQ(c.wpq_stall_cycles, 0u);
  const Wpq::AcceptResult r = wpq.Accept(0);  // 5th entry: queue full
  EXPECT_GT(c.wpq_stall_cycles, 0u);
  EXPECT_GT(r.accepted_at, last_accept);
}

TEST(WpqTest, FullQueueRetainsEntriesUntilDrainTime) {
  // Regression: the full-queue path used to pop the oldest entry the moment a
  // stalled store arrived, before that entry's drain time — OccupancyAt (and
  // the wpq_occupancy trace) under-reported exactly when the queue mattered
  // most. Entries must retire at their drain time, not at stall start.
  Counters c;
  Wpq wpq({2, 10, 100}, &c);
  const Wpq::AcceptResult a = wpq.Accept(0);  // drains at 110
  const Wpq::AcceptResult b = wpq.Accept(0);  // drains at 210
  EXPECT_EQ(a.drained_at, 110u);
  EXPECT_EQ(b.drained_at, 210u);
  EXPECT_EQ(wpq.OccupancyAt(50), 2u);

  // Third store at t=0: the queue is full, so acceptance waits for the front
  // entry's drain at 110 and exactly that entry retires then.
  const Wpq::AcceptResult r = wpq.Accept(0);
  EXPECT_EQ(c.wpq_stall_cycles, 110u);
  EXPECT_EQ(r.accepted_at, 120u);   // stall end + accept latency
  EXPECT_EQ(r.drained_at, 310u);    // serialized behind entry b's drain
  // During the stall window both original entries were still queued; after
  // it, b and the new entry remain in flight.
  EXPECT_EQ(wpq.OccupancyAt(50), 2u);
  EXPECT_EQ(wpq.OccupancyAt(150), 2u);   // b (210) and r (310)
  EXPECT_EQ(wpq.OccupancyAt(250), 1u);   // only r
  EXPECT_EQ(wpq.OccupancyAt(310), 0u);
}

TEST(WpqTest, StallTimingUnchangedByRetireAtDrain) {
  // The accounting fix must not shift accept/drain times: consecutive stalled
  // stores still pipeline at one drain per drain_latency.
  Counters c;
  Wpq wpq({2, 10, 100}, &c);
  wpq.Accept(0);
  wpq.Accept(0);
  Cycles prev_accept = 0;
  Cycles prev_drain = 0;
  for (int i = 0; i < 4; ++i) {
    const Wpq::AcceptResult r = wpq.Accept(0);
    if (i > 0) {
      EXPECT_EQ(r.accepted_at - prev_accept, 100u) << i;  // one drain period
      EXPECT_EQ(r.drained_at - prev_drain, 100u) << i;
    }
    prev_accept = r.accepted_at;
    prev_drain = r.drained_at;
  }
}

TEST(WpqTest, BackpressureDelaysDrains) {
  Counters c;
  Wpq wpq({16, 10, 30}, &c);
  wpq.Accept(0);
  wpq.DelayDrain(5000);
  const Wpq::AcceptResult r = wpq.Accept(0);
  EXPECT_GE(r.drained_at, 5030u);
}

TEST(WpqTest, OccupancyTracksTime) {
  Counters c;
  Wpq wpq({16, 10, 100}, &c);
  const Wpq::AcceptResult r = wpq.Accept(0);
  EXPECT_EQ(wpq.OccupancyAt(0), 1u);
  EXPECT_EQ(wpq.OccupancyAt(r.drained_at), 0u);
}

TEST(McTest, KindRouting) {
  EXPECT_EQ(MemoryController::KindOf(0x1000), MemoryKind::kOptane);
  EXPECT_EQ(MemoryController::KindOf(kDramAddressBase + 64), MemoryKind::kDram);
}

TEST(McTest, InterleaveAcrossDimms) {
  McFixture f(G1Platform(), /*optane_dimms=*/6);
  // Writes landing on different 4 KB pages hit different DIMM write buffers.
  for (uint64_t page = 0; page < 6; ++page) {
    f.mc.Write(page * kPageSize, 1000, 0);
  }
  size_t populated = 0;
  for (size_t i = 0; i < f.mc.optane_dimm_count(); ++i) {
    populated += f.mc.optane_dimm(i).write_buffer().occupied_entries() > 0 ? 1 : 0;
  }
  EXPECT_EQ(populated, 6u);
}

TEST(McTest, SingleDimmTakesAll) {
  McFixture f(G1Platform(), 1);
  for (uint64_t page = 0; page < 6; ++page) {
    f.mc.Write(page * kPageSize, 1000, 0);
  }
  EXPECT_EQ(f.mc.optane_dimm(0).write_buffer().occupied_entries(), 6u);
}

TEST(McTest, NumaHopAddsRoundTrip) {
  const PlatformConfig p = G1Platform();
  McFixture local(p, 1);
  McFixture remote(p, 1);
  AccessRecord rl;
  AccessRecord rr;
  local.mc.Read(0, 1000, /*requester=*/0, false, &rl);
  remote.mc.Read(0, 1000, /*requester=*/1, false, &rr);
  EXPECT_EQ(rr.complete_at - rl.complete_at, 2 * p.imc.numa_hop_latency);
  EXPECT_EQ(rr.mem.imc_transit - rl.mem.imc_transit, 2 * p.imc.numa_hop_latency);
}

TEST(McTest, PersistPointPrecedesVisibility) {
  McFixture f(G1Platform(), 1);
  const McWriteResult w = f.mc.Write(0, 1000, 0);
  EXPECT_GT(w.accepted_at, 1000u);
  EXPECT_GT(w.visible_at, w.accepted_at);
  // ADR: acceptance is the persist point; visibility lags by the pipeline.
  EXPECT_GE(w.visible_at - w.accepted_at, G1Platform().optane.write_visible_delay / 2);
}

TEST(McTest, SameLinePersistStallsOnG1) {
  McFixture f(G1Platform(), 1);
  f.mc.Write(0, 1000, 0);
  const McWriteResult w2 = f.mc.Write(0, 1100, 0);  // same line, within window
  EXPECT_GT(w2.accepted_at - 1100, G1Platform().imc.wpq.accept_latency);
  EXPECT_GT(f.totals().wpq_stall_cycles, 0u);

  McFixture g2(G2Platform(), 1);
  g2.mc.Write(0, 1000, 0);
  const McWriteResult g2w = g2.mc.Write(0, 1100, 0);
  EXPECT_EQ(g2w.accepted_at, 1100 + G2Platform().imc.wpq.accept_latency);
}

TEST(McTest, DramSameLineWritesDoNotStall) {
  // DDR4 merges same-line writes: even on G1, whose Optane DIMMs stall a
  // second persist to the same line, the DRAM branch accepts both at once.
  McFixture f(G1Platform(), 1);
  ASSERT_TRUE(G1Platform().optane.same_line_flush_stall);
  f.mc.Write(kDramAddressBase, 1000, 0);
  const McWriteResult w2 = f.mc.Write(kDramAddressBase, 1100, 0);
  EXPECT_EQ(w2.accepted_at, 1100 + G1Platform().imc.wpq.accept_latency);
  EXPECT_EQ(f.totals().wpq_stall_cycles, 0u);
}

TEST(McTest, DifferentLinesDoNotStall) {
  McFixture f(G1Platform(), 1);
  f.mc.Write(0, 1000, 0);
  const McWriteResult w2 = f.mc.Write(kCacheLineSize, 1100, 0);
  EXPECT_EQ(w2.accepted_at, 1100 + G1Platform().imc.wpq.accept_latency);
}

TEST(McTest, DramWritesRouteToDramModel) {
  McFixture f(G1Platform(), 1);
  f.mc.Write(kDramAddressBase, 1000, 0);
  EXPECT_EQ(f.mc.dram_counters().dram_write_bytes, kCacheLineSize);
  EXPECT_EQ(f.totals().imc_write_bytes, 0u);  // PM-side counter untouched
}

}  // namespace
}  // namespace pmemsim
