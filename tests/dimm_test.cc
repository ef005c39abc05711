// Tests for the DIMM models: Optane read/write paths, amplification
// bookkeeping, read-after-persist stalls, buffer transitions; DRAM baseline.

#include <gtest/gtest.h>

#include "src/common/config.h"
#include "src/dimm/dram_dimm.h"
#include "src/dimm/optane_dimm.h"

namespace pmemsim {
namespace {

OptaneDimmConfig G1Dimm() { return G1Platform().optane; }
OptaneDimmConfig G2Dimm() { return G2Platform().optane; }

// Serves one read into a fresh record.
template <typename DimmT>
AccessRecord ReadLine(DimmT& dimm, Addr addr, Cycles now, bool ordered) {
  AccessRecord r;
  dimm.Read(addr, now, ordered, &r);
  return r;
}

TEST(OptaneDimmTest, ColdReadFetchesWholeXPLine) {
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  const AccessRecord r = ReadLine(dimm, 64, 1000, false);
  EXPECT_GT(r.complete_at, 1000 + G1Dimm().media_read_latency);
  EXPECT_EQ(c.media_read_bytes, kXPLineSize);
  EXPECT_EQ(c.imc_read_bytes, kCacheLineSize);
}

TEST(OptaneDimmTest, AdjacentLinesHitReadBuffer) {
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  ReadLine(dimm, 0, 1000, false);
  const Cycles media_after_first = c.media_read_bytes;
  const AccessRecord r2 = ReadLine(dimm, 64, 100000, false);
  EXPECT_EQ(c.media_read_bytes, media_after_first);  // buffer hit
  EXPECT_EQ(r2.complete_at, 100000 + G1Dimm().buffer_hit_latency);
}

TEST(OptaneDimmTest, RereadRefetches) {
  // Exclusive read buffer: the same line read twice costs two media fetches.
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  ReadLine(dimm, 0, 1000, false);
  ReadLine(dimm, 0, 100000, false);
  EXPECT_EQ(c.media_read_bytes, 2 * kXPLineSize);
}

TEST(OptaneDimmTest, WriteIsAbsorbedWithoutMedia) {
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  const DimmWriteResult w = dimm.Write(0, 1000);
  EXPECT_EQ(w.visible_at, 1000 + G1Dimm().write_visible_delay);
  EXPECT_EQ(c.media_write_bytes, 0u);
  EXPECT_EQ(c.imc_write_bytes, kCacheLineSize);
}

TEST(OptaneDimmTest, ReadAfterPersistStallsUntilVisible) {
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  const DimmWriteResult w = dimm.Write(0, 1000);
  const AccessRecord r = ReadLine(dimm, 0, 1200, /*ordered=*/true);
  EXPECT_EQ(r.stalled_for, w.visible_at - 1200);
  EXPECT_EQ(r.complete_at, w.visible_at + G1Dimm().buffer_hit_latency);
  EXPECT_EQ(c.rap_stalled_loads, 1u);
}

TEST(OptaneDimmTest, UnorderedReadHidesPartOfStall) {
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  dimm.Write(0, 1000);
  const AccessRecord ordered = ReadLine(dimm, 0, 1200, true);
  Counters c2;
  OptaneDimm dimm2(G1Dimm(), &c2);
  dimm2.Write(0, 1000);
  const AccessRecord unordered = ReadLine(dimm2, 0, 1200, false);
  EXPECT_EQ(ordered.stalled_for - unordered.stalled_for, G1Dimm().unordered_read_overlap);
}

TEST(OptaneDimmTest, OldPersistDoesNotStall) {
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  const DimmWriteResult w = dimm.Write(0, 1000);
  const AccessRecord r = ReadLine(dimm, 0, w.visible_at + 1, true);
  EXPECT_EQ(r.stalled_for, 0u);
}

TEST(OptaneDimmTest, ReadToWriteBufferTransition) {
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  ReadLine(dimm, 0, 1000, false);  // XPLine into the read buffer
  dimm.Write(64, 2000);             // write to another line of the same XPLine
  EXPECT_EQ(c.read_write_transitions, 1u);
  EXPECT_TRUE(dimm.write_buffer().ReadSnoop(128).holds_line);  // whole XPLine absorbed
  EXPECT_FALSE(dimm.read_buffer().ContainsXPLine(0));
}

TEST(OptaneDimmTest, OnDemandRmwMergeServesLaterReads) {
  // §3.3 experiment B: write line 0, then read lines 1-3 — the first read
  // pulls the XPLine into the write buffer; later reads hit it.
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  dimm.Write(0, 1000);
  ReadLine(dimm, 64, 2000, false);
  EXPECT_EQ(c.media_read_bytes, kXPLineSize);  // one on-demand merge
  ReadLine(dimm, 128, 3000, false);
  ReadLine(dimm, 192, 4000, false);
  ReadLine(dimm, 64, 5000, false);  // write buffer is not exclusive: still a hit
  EXPECT_EQ(c.media_read_bytes, kXPLineSize);
}

TEST(OptaneDimmTest, SameLineStallOnlyOnG1) {
  OptaneDimmConfig g1 = G1Dimm();
  OptaneDimmConfig g2 = G2Dimm();
  Counters c1, c2;
  OptaneDimm d1(g1, &c1), d2(g2, &c2);
  d1.Write(0, 1000);
  d2.Write(0, 1000);
  EXPECT_GT(d1.SameLineStallUntil(0), 1000u);
  EXPECT_EQ(d2.SameLineStallUntil(0), 0u);
}

TEST(OptaneDimmTest, PartialEvictionCountsRmw) {
  Counters c;
  OptaneDimmConfig cfg = G1Dimm();
  cfg.write_buffer.periodic_full_writeback = false;
  OptaneDimm dimm(cfg, &c);
  // Overflow the partial capacity with single-line writes.
  for (uint64_t xp = 0; xp < 80; ++xp) {
    dimm.Write(xp * kXPLineSize, 1000 + xp);
  }
  EXPECT_GT(c.write_buffer_evictions, 0u);
  EXPECT_EQ(c.rmw_media_reads, c.write_buffer_evictions);
  EXPECT_EQ(c.media_write_bytes, c.write_buffer_evictions * kXPLineSize);
}

TEST(DramDimmTest, FlatLoadLatency) {
  Counters c;
  DramConfig cfg = G1Platform().dram;
  DramDimm dimm(cfg, &c);
  const AccessRecord r = ReadLine(dimm, 0, 1000, false);
  EXPECT_EQ(r.complete_at, 1000 + cfg.load_latency);
  EXPECT_EQ(c.dram_read_bytes, kCacheLineSize);
}

TEST(DramDimmTest, RapShorterThanOptane) {
  Counters c;
  DramConfig cfg = G1Platform().dram;
  DramDimm dimm(cfg, &c);
  const DimmWriteResult w = dimm.Write(0, 1000);
  EXPECT_EQ(w.visible_at, 1000 + cfg.write_visible_delay);
  const AccessRecord r = ReadLine(dimm, 0, 1001, true);
  EXPECT_EQ(r.stalled_for, w.visible_at - 1001);
  EXPECT_LT(cfg.write_visible_delay, G1Dimm().write_visible_delay / 4);
}

// The 65,536th pending write sweeps the lines whose writes are visible: a
// line still propagating (written just before or by the sweeping write)
// keeps its read-after-persist stall, and an expired line takes none.
TEST(DramDimmTest, SweepKeepsOnlyPendingLines) {
  Counters c;
  DramConfig cfg = G1Platform().dram;
  DramDimm dimm(cfg, &c);
  constexpr uint64_t kSweepAt = 65536;
  for (uint64_t i = 0; i < kSweepAt - 2; ++i) {
    dimm.Write(i * kCacheLineSize, 0);
  }
  const Addr before = (kSweepAt - 2) * kCacheLineSize;
  const Addr sweeping = (kSweepAt - 1) * kCacheLineSize;
  const DimmWriteResult wb = dimm.Write(before, 9990);
  const DimmWriteResult ws = dimm.Write(sweeping, 10000);

  EXPECT_EQ(ReadLine(dimm, before, 10001, true).stalled_for, wb.visible_at - 10001);
  EXPECT_EQ(ReadLine(dimm, sweeping, 10002, true).stalled_for, ws.visible_at - 10002);
  EXPECT_EQ(ReadLine(dimm, 0, 10003, true).stalled_for, 0u);
  EXPECT_EQ(c.rap_stalled_loads, 2u);
}

// Property: over any random mixed workload, media read/write bytes are
// multiples of the XPLine size and iMC bytes multiples of the cacheline size,
// with amplification bounded by 4 (the paper's §2.4 bound).
class DimmInvariantProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DimmInvariantProperty, AmplificationBounds) {
  Counters c;
  OptaneDimm dimm(G1Dimm(), &c);
  Rng rng(GetParam());
  Cycles now = 1000;
  for (int i = 0; i < 5000; ++i) {
    const Addr line = rng.NextBelow(256) * kCacheLineSize;
    if (rng.NextBelow(2) == 0) {
      ReadLine(dimm, line, now, rng.NextBelow(2) == 0);
    } else {
      dimm.Write(line, now);
    }
    now += 50 + rng.NextBelow(400);
  }
  EXPECT_EQ(c.media_read_bytes % kXPLineSize, 0u);
  EXPECT_EQ(c.media_write_bytes % kXPLineSize, 0u);
  EXPECT_EQ(c.imc_read_bytes % kCacheLineSize, 0u);
  EXPECT_EQ(c.imc_write_bytes % kCacheLineSize, 0u);
  EXPECT_LE(c.WriteAmplification(), 4.0 + 1e-9);
  // RA counts on-demand RMW merges too, still bounded by 4 per 64 B read.
  EXPECT_LE(c.ReadAmplification(), 4.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DimmInvariantProperty, ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace pmemsim
