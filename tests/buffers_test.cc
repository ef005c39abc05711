// Tests for the on-DIMM read and write buffers — the paper's central
// structures. Includes parameterized property sweeps over working set sizes
// reproducing the Fig. 2/3/4 invariants at the unit level.

#include <gtest/gtest.h>

#include "src/buffers/read_buffer.h"
#include "src/buffers/write_buffer.h"
#include "src/common/config.h"
#include "src/common/random.h"

namespace pmemsim {
namespace {

// ---------- ReadBuffer ----------

TEST(ReadBufferTest, MissOnEmpty) {
  Counters c;
  ReadBuffer buf(KiB(16), &c, ReadBufferEviction::kFifo, /*exclusive=*/true);
  EXPECT_FALSE(buf.ConsumeLine(0));
  EXPECT_EQ(c.read_buffer_misses, 1u);
}

TEST(ReadBufferTest, FillMakesAllFourLinesHit) {
  Counters c;
  ReadBuffer buf(KiB(16), &c, ReadBufferEviction::kFifo, /*exclusive=*/true);
  buf.Fill(512);
  for (uint64_t cl = 0; cl < 4; ++cl) {
    EXPECT_TRUE(buf.ConsumeLine(512 + cl * kCacheLineSize)) << cl;
  }
}

TEST(ReadBufferTest, ExclusiveDelivery) {
  // A consumed line is gone (exclusive with the CPU caches): re-reading
  // always costs a refetch — the reason RA never drops below 1 (§3.1).
  Counters c;
  ReadBuffer buf(KiB(16), &c, ReadBufferEviction::kFifo, /*exclusive=*/true);
  buf.Fill(0);
  EXPECT_TRUE(buf.ConsumeLine(0));
  EXPECT_FALSE(buf.ConsumeLine(0));
  // Other lines of the XPLine are still valid.
  EXPECT_TRUE(buf.ConsumeLine(64));
}

TEST(ReadBufferTest, RefillRefreshesConsumedLines) {
  Counters c;
  ReadBuffer buf(KiB(16), &c, ReadBufferEviction::kFifo, /*exclusive=*/true);
  buf.Fill(0);
  EXPECT_TRUE(buf.ConsumeLine(0));
  buf.Fill(0);  // refetch refreshes in place
  EXPECT_TRUE(buf.ConsumeLine(0));
}

TEST(ReadBufferTest, FifoEviction) {
  Counters c;
  ReadBuffer buf(KiB(1), &c, ReadBufferEviction::kFifo, /*exclusive=*/true);  // 4 XPLine slots
  for (uint64_t i = 0; i < 5; ++i) {
    buf.Fill(i * kXPLineSize);
  }
  EXPECT_FALSE(buf.Probe(0));                 // oldest evicted
  EXPECT_TRUE(buf.Probe(1 * kXPLineSize));    // rest remain
  EXPECT_TRUE(buf.Probe(4 * kXPLineSize));
}

TEST(ReadBufferTest, RemoveForTransition) {
  Counters c;
  ReadBuffer buf(KiB(16), &c, ReadBufferEviction::kFifo, /*exclusive=*/true);
  buf.Fill(0);
  EXPECT_TRUE(buf.ContainsXPLine(128));
  EXPECT_TRUE(buf.Remove(128));
  EXPECT_FALSE(buf.ContainsXPLine(0));
  EXPECT_FALSE(buf.Remove(0));
}

TEST(ReadBufferTest, FreedSlotsRefillInFifoOrder) {
  // Pins the fill sequence around §3.3 transitions: slots vacated by Remove
  // are reused in the order they were freed (FIFO), before the eviction hand
  // touches any live slot. Layout below: A,B,C,D land in slots 0..3.
  Counters c;
  ReadBuffer buf(KiB(1), &c, ReadBufferEviction::kFifo, /*exclusive=*/true);  // 4 XPLine slots
  const Addr a = 0 * kXPLineSize, b = 1 * kXPLineSize, cc = 2 * kXPLineSize,
             d = 3 * kXPLineSize, e = 4 * kXPLineSize, f = 5 * kXPLineSize,
             g = 6 * kXPLineSize, h = 7 * kXPLineSize;
  for (const Addr x : {a, b, cc, d}) {
    buf.Fill(x);
  }
  ASSERT_TRUE(buf.Remove(b));   // slot 1 freed first
  ASSERT_TRUE(buf.Remove(cc));  // slot 2 freed second
  buf.Fill(e);                  // reuses slot 1 (freed first), evicts nothing
  buf.Fill(f);                  // reuses slot 2, evicts nothing
  EXPECT_TRUE(buf.Probe(a));
  EXPECT_TRUE(buf.Probe(d));
  EXPECT_TRUE(buf.Probe(e));
  EXPECT_TRUE(buf.Probe(f));
  // Free list exhausted: the FIFO hand resumes at slot 0 and walks by slot
  // position. G evicts A (slot 0); H evicts E — which sits in slot 1 exactly
  // because the free list replayed B's slot before C's. A LIFO free list
  // would have put F there and this sequence pins the difference.
  buf.Fill(g);
  EXPECT_FALSE(buf.Probe(a));
  buf.Fill(h);
  EXPECT_FALSE(buf.Probe(e));
  EXPECT_TRUE(buf.Probe(d));
  EXPECT_TRUE(buf.Probe(f));
  EXPECT_TRUE(buf.Probe(g));
  EXPECT_TRUE(buf.Probe(h));
}

TEST(ReadBufferTest, FillForDeliveryMatchesFillPlusConsume) {
  // FillForDelivery must leave the buffer in exactly the state of
  // Fill + ConsumeLine, with only the counter bookkeeping differing —
  // OptaneDimm::Read relies on this to skip the post-fill lookup.
  Counters c1, c2;
  ReadBuffer x(KiB(1), &c1, ReadBufferEviction::kFifo, /*exclusive=*/true);
  ReadBuffer y(KiB(1), &c2, ReadBufferEviction::kFifo, /*exclusive=*/true);
  const Addr addrs[] = {64, 3 * kXPLineSize + 128, 9 * kXPLineSize, 64, 5 * kXPLineSize + 192};
  for (const Addr addr : addrs) {
    x.FillForDelivery(addr);
    y.Fill(addr);
    ASSERT_TRUE(y.ConsumeLine(addr));
    for (uint64_t xp = 0; xp < 12; ++xp) {
      for (uint64_t cl = 0; cl < 4; ++cl) {
        const Addr probe = xp * kXPLineSize + cl * kCacheLineSize;
        EXPECT_EQ(x.Probe(probe), y.Probe(probe)) << "addr=" << addr << " probe=" << probe;
      }
    }
  }
  EXPECT_EQ(c1.read_buffer_hits, 0u);  // deliveries are not hits
}

// Property: for any WSS <= capacity, the strided CpX pattern yields exactly
// one miss per XPLine per full round (RA = 4/CpX); for WSS > capacity, every
// access misses (RA = 4) — the Fig. 2 law.
class ReadBufferRaProperty : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(ReadBufferRaProperty, Fig2Law) {
  const uint64_t wss = std::get<0>(GetParam());
  const uint32_t cpx = std::get<1>(GetParam());
  const uint64_t capacity = KiB(16);

  Counters c;
  ReadBuffer buf(capacity, &c, ReadBufferEviction::kFifo, /*exclusive=*/true);
  const uint64_t xplines = wss / kXPLineSize;

  auto round = [&]() {
    for (uint32_t cl = 0; cl < cpx; ++cl) {
      for (uint64_t xp = 0; xp < xplines; ++xp) {
        const Addr line = xp * kXPLineSize + cl * kCacheLineSize;
        if (!buf.ConsumeLine(line)) {
          buf.Fill(line);
          ASSERT_TRUE(buf.ConsumeLine(line));
        }
      }
    }
  };

  for (int warm = 0; warm < 3; ++warm) {
    round();
  }
  const uint64_t misses_before = c.read_buffer_misses;
  const uint64_t hits_before = c.read_buffer_hits;
  const int rounds = 4;
  for (int r = 0; r < rounds; ++r) {
    round();
  }
  const uint64_t misses = c.read_buffer_misses - misses_before;
  const uint64_t accesses = (c.read_buffer_hits - hits_before) + misses;
  // Counter bookkeeping inside the helper counts each miss retry as hit too;
  // reconstruct demanded accesses directly.
  const uint64_t demanded = static_cast<uint64_t>(rounds) * cpx * xplines;
  const double ra = 4.0 * static_cast<double>(misses) / static_cast<double>(demanded);
  (void)accesses;
  if (wss <= capacity) {
    EXPECT_NEAR(ra, 4.0 / cpx, 0.01) << "wss=" << wss << " cpx=" << cpx;
  } else {
    EXPECT_NEAR(ra, 4.0, 0.01) << "wss=" << wss << " cpx=" << cpx;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReadBufferRaProperty,
                         ::testing::Combine(::testing::Values(KiB(4), KiB(8), KiB(12), KiB(16),
                                                              KiB(17), KiB(24), KiB(32)),
                                            ::testing::Values(1u, 2u, 3u, 4u)));

// ---------- WriteBuffer ----------

// Random-victim stream seed for every buffer built here.
constexpr uint64_t kRngSeed = 0xC0FFEE;

TEST(WriteBufferTest, MergeIsAHit) {
  Counters c;
  WriteBuffer buf(G1Platform().optane.write_buffer, &c, kRngSeed);
  std::vector<WritebackRequest> wb;
  EXPECT_FALSE(buf.Write(0, 0, 100, wb));
  EXPECT_TRUE(buf.Write(64, 1, 101, wb));  // same XPLine
  EXPECT_TRUE(buf.Write(0, 2, 102, wb));   // same line again
  EXPECT_EQ(c.write_buffer_hits, 2u);
  EXPECT_EQ(c.write_buffer_misses, 1u);
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBufferTest, VisibleAtIsPerCacheline) {
  Counters c;
  WriteBuffer buf(G1Platform().optane.write_buffer, &c, kRngSeed);
  std::vector<WritebackRequest> wb;
  buf.Write(0, 0, 1000, wb);
  buf.Write(64, 0, 2000, wb);
  EXPECT_EQ(buf.VisibleAt(0), 1000u);
  EXPECT_EQ(buf.VisibleAt(64), 2000u);
  EXPECT_EQ(buf.VisibleAt(128), 0u);  // line not written
}

TEST(WriteBufferTest, PartialCapacityKnee) {
  // G1: partial XPLines are absorbed without any write-back until the usable
  // 48-entry (12 KB) capacity is exceeded (Fig. 3).
  Counters c;
  WriteBuffer buf(G1Platform().optane.write_buffer, &c, kRngSeed);
  std::vector<WritebackRequest> wb;
  for (uint64_t xp = 0; xp < 47; ++xp) {
    buf.Write(xp * kXPLineSize, 0, 0, wb);
  }
  EXPECT_TRUE(wb.empty());
  for (uint64_t xp = 47; xp < 52; ++xp) {
    buf.Write(xp * kXPLineSize, 0, 0, wb);
  }
  EXPECT_FALSE(wb.empty());
  for (const WritebackRequest& r : wb) {
    EXPECT_TRUE(r.needs_rmw);  // partial lines need the RMW fetch
    EXPECT_FALSE(r.periodic);
  }
}

TEST(WriteBufferTest, PeriodicWritebackOfFullLines) {
  Counters c;
  WriteBuffer buf(G1Platform().optane.write_buffer, &c, kRngSeed);
  std::vector<WritebackRequest> wb;
  for (uint64_t cl = 0; cl < 4; ++cl) {
    buf.Write(cl * kCacheLineSize, 10, 100, wb);  // fully written XPLine
  }
  EXPECT_TRUE(wb.empty());
  buf.Tick(10000, wb);  // past the period
  ASSERT_EQ(wb.size(), 1u);
  EXPECT_TRUE(wb[0].periodic);
  EXPECT_FALSE(wb[0].needs_rmw);
  EXPECT_EQ(c.periodic_writebacks, 1u);
  // The entry stays resident (clean) and still serves reads.
  EXPECT_TRUE(buf.ReadSnoop(0).holds_line);
}

TEST(WriteBufferTest, G2NoPeriodicWriteback) {
  Counters c;
  WriteBuffer buf(G2Platform().optane.write_buffer, &c, kRngSeed);
  std::vector<WritebackRequest> wb;
  for (uint64_t cl = 0; cl < 4; ++cl) {
    buf.Write(cl * kCacheLineSize, 10, 100, wb);
  }
  buf.Tick(1000000, wb);
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBufferTest, G2FullCapacitySingleEviction) {
  Counters c;
  WriteBuffer buf(G2Platform().optane.write_buffer, &c, kRngSeed);
  std::vector<WritebackRequest> wb;
  for (uint64_t xp = 0; xp < 64; ++xp) {
    buf.Write(xp * kXPLineSize, 0, 0, wb);
  }
  EXPECT_TRUE(wb.empty());  // 64 entries fit exactly
  buf.Write(64 * kXPLineSize, 0, 0, wb);
  EXPECT_EQ(wb.size(), 1u);  // one random victim
}

TEST(WriteBufferTest, AbsorbFillCompletesEntry) {
  Counters c;
  WriteBuffer buf(G1Platform().optane.write_buffer, &c, kRngSeed);
  std::vector<WritebackRequest> wb;
  buf.Write(0, 0, 100, wb);
  EXPECT_FALSE(buf.ReadSnoop(64).holds_line);
  EXPECT_TRUE(buf.AbsorbFill(64));
  EXPECT_TRUE(buf.ReadSnoop(64).holds_line);
  EXPECT_FALSE(buf.AbsorbFill(100 * kXPLineSize));  // not resident
  // Evicting an absorbed entry needs no RMW.
  buf.DrainAll(wb);
  ASSERT_EQ(wb.size(), 1u);
  EXPECT_FALSE(wb[0].needs_rmw);
}

TEST(WriteBufferTest, InstallTransitionHoldsWholeXPLine) {
  Counters c;
  WriteBuffer buf(G1Platform().optane.write_buffer, &c, kRngSeed);
  std::vector<WritebackRequest> wb;
  buf.InstallTransition(64, 0, 500, wb);
  EXPECT_TRUE(buf.ReadSnoop(0).holds_line);
  EXPECT_TRUE(buf.ReadSnoop(192).holds_line);
  EXPECT_EQ(buf.VisibleAt(64), 500u);
  EXPECT_EQ(buf.VisibleAt(0), 0u);  // unwritten lines are visible data
  EXPECT_EQ(c.read_write_transitions, 1u);
}

// Property: steady-state hit ratio under uniform random single-line writes
// decays with WSS beyond capacity (the Fig. 4 law), and G1's batch eviction
// keeps occupancy below G2's.
class WriteBufferHitProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WriteBufferHitProperty, Fig4Law) {
  const uint64_t wss = GetParam();
  for (const bool g1 : {true, false}) {
    Counters c;
    WriteBuffer buf((g1 ? G1Platform() : G2Platform()).optane.write_buffer, &c, kRngSeed);
    std::vector<WritebackRequest> wb;
    Rng rng(7 + wss);
    const uint64_t xplines = wss / kXPLineSize;
    for (int i = 0; i < 20000; ++i) {
      buf.Write(rng.NextBelow(xplines) * kXPLineSize, static_cast<Cycles>(i), 0, wb);
      wb.clear();
    }
    const double hit = c.WriteBufferHitRatio();
    const uint64_t usable = g1 ? 48 : 64;
    if (xplines <= usable) {
      EXPECT_GT(hit, 0.95) << "g1=" << g1 << " wss=" << wss;
    } else {
      EXPECT_LT(hit, 0.95) << "g1=" << g1 << " wss=" << wss;
      EXPECT_GT(hit, 0.5 * static_cast<double>(usable) / static_cast<double>(xplines));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WriteBufferHitProperty,
                         ::testing::Values(KiB(4), KiB(8), KiB(12), KiB(20), KiB(32), KiB(64)));

// Regression: the buffer must replay bit-for-bit for identical seeds. Tick,
// EvictOne's clean-entry scan, and DrainAll used to walk the unordered map_,
// whose iteration order is a stdlib implementation detail — eviction and
// write-back sequences could differ across toolchains for the same seed.
// They now walk keys_, whose order is a pure function of the operation
// history, so two identically seeded buffers must emit identical sequences.
std::vector<WritebackRequest> ReplayMixedWorkload(const WriteBufferConfig& cfg) {
  Counters c;
  WriteBuffer buf(cfg, &c, kRngSeed);
  std::vector<WritebackRequest> all;
  std::vector<WritebackRequest> wb;
  Rng rng(0xD373C7);
  for (int i = 0; i < 5000; ++i) {
    const Addr xpline = rng.NextBelow(96) * kXPLineSize;
    const uint64_t cl = rng.NextBelow(kLinesPerXPLine);
    buf.Write(xpline + cl * kCacheLineSize, static_cast<Cycles>(i * 7),
              static_cast<Cycles>(i * 7 + 50), wb);
    if (i % 97 == 0) {
      buf.Tick(static_cast<Cycles>(i * 7), wb);
    }
    all.insert(all.end(), wb.begin(), wb.end());
    wb.clear();
  }
  buf.DrainAll(wb);
  all.insert(all.end(), wb.begin(), wb.end());
  return all;
}

TEST(WriteBufferTest, DeterministicWritebackSequence) {
  for (const bool g1 : {true, false}) {
    const WriteBufferConfig cfg = [&] {
      WriteBufferConfig c = (g1 ? G1Platform() : G2Platform()).optane.write_buffer;
      c.eviction = WriteBufferEviction::kRandom;
      return c;
    }();
    const std::vector<WritebackRequest> a = ReplayMixedWorkload(cfg);
    const std::vector<WritebackRequest> b = ReplayMixedWorkload(cfg);
    ASSERT_EQ(a.size(), b.size()) << "g1=" << g1;
    ASSERT_FALSE(a.empty()) << "workload produced no write-backs; test is vacuous";
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].xpline, b[i].xpline) << "g1=" << g1 << " i=" << i;
      EXPECT_EQ(a[i].needs_rmw, b[i].needs_rmw) << "g1=" << g1 << " i=" << i;
      EXPECT_EQ(a[i].periodic, b[i].periodic) << "g1=" << g1 << " i=" << i;
    }
  }
}

TEST(WriteBufferTest, DeterministicOldestEvictionSequence) {
  // The kOldest ablation policy must also replay identically.
  WriteBufferConfig cfg = G2Platform().optane.write_buffer;
  cfg.eviction = WriteBufferEviction::kOldest;
  const std::vector<WritebackRequest> a = ReplayMixedWorkload(cfg);
  const std::vector<WritebackRequest> b = ReplayMixedWorkload(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].xpline, b[i].xpline) << i;
  }
}

TEST(WriteBufferTest, DrainAllOrderFollowsKeyList) {
  // DrainAll walks keys_ (deterministic), not map_. With no evictions the
  // key list is insertion-ordered, so the drain order is the write order.
  Counters c;
  WriteBuffer buf(G2Platform().optane.write_buffer, &c, kRngSeed);
  std::vector<WritebackRequest> wb;
  const Addr xplines[] = {7 * kXPLineSize, 3 * kXPLineSize, 11 * kXPLineSize, 1 * kXPLineSize};
  for (const Addr xp : xplines) {
    buf.Write(xp, 0, 0, wb);
  }
  ASSERT_TRUE(wb.empty());
  buf.DrainAll(wb);
  ASSERT_EQ(wb.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(wb[i].xpline, xplines[i]) << i;
  }
}

}  // namespace
}  // namespace pmemsim
