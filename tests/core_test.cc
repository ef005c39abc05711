// Tests for the System facade and the telemetry layer.

#include <gtest/gtest.h>

#include "src/core/platform.h"
#include "src/trace/counters.h"

namespace pmemsim {
namespace {

TEST(SystemTest, RegionsDoNotOverlap) {
  auto system = MakeG1System(1);
  std::vector<PmRegion> regions;
  for (int i = 0; i < 20; ++i) {
    regions.push_back(system->AllocatePm(1 + static_cast<uint64_t>(i) * 100));
    regions.push_back(system->AllocateDram(1 + static_cast<uint64_t>(i) * 77));
  }
  for (size_t a = 0; a < regions.size(); ++a) {
    for (size_t b = a + 1; b < regions.size(); ++b) {
      const bool disjoint =
          regions[a].end() <= regions[b].base || regions[b].end() <= regions[a].base;
      EXPECT_TRUE(disjoint) << a << " vs " << b;
    }
  }
}

TEST(SystemTest, PmAndDramLiveInDistinctSpaces) {
  auto system = MakeG1System(1);
  const PmRegion pm = system->AllocatePm(KiB(4));
  const PmRegion dram = system->AllocateDram(KiB(4));
  EXPECT_EQ(pm.kind, MemoryKind::kOptane);
  EXPECT_EQ(dram.kind, MemoryKind::kDram);
  EXPECT_EQ(MemoryController::KindOf(pm.base), MemoryKind::kOptane);
  EXPECT_EQ(MemoryController::KindOf(dram.base), MemoryKind::kDram);
}

TEST(SystemTest, AlignmentHonored) {
  auto system = MakeG1System(1);
  system->AllocatePm(100);  // misalign the bump pointer
  const PmRegion r = system->AllocatePm(KiB(1), kXPLineSize);
  EXPECT_TRUE(IsXPLineAligned(r.base));
  const PmRegion page = system->AllocatePm(KiB(1), kPageSize);
  EXPECT_EQ(PageBase(page.base), page.base);
}

TEST(SystemTest, ThreadsShareDataButNotClocks) {
  auto system = MakeG1System(1);
  ThreadContext& a = system->CreateThread();
  ThreadContext& b = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(4));
  a.Store64(region.base, 0x1234);
  EXPECT_EQ(b.Load64(region.base), 0x1234u);  // shared backing store
  a.AddCompute(10000);
  EXPECT_NE(a.clock(), b.clock());  // private clocks
}

TEST(SystemTest, ResetMicroarchKeepsData) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(4));
  ctx.Store64(region.base, 77);
  system->ResetMicroarchState();
  const uint64_t misses_before = system->counters().cache_misses;
  EXPECT_EQ(ctx.Load64(region.base), 77u);
  EXPECT_EQ(system->counters().cache_misses, misses_before + 1);  // caches were dropped
}

TEST(CountersTest, DeltaIsolatesPhases) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, false, false, false);
  const PmRegion region = system->AllocatePm(KiB(16));
  ctx.LoadLine(region.base);
  CounterDelta delta(&system->counters());
  ctx.LoadLine(region.base + KiB(8));
  const Counters d = delta.Delta();
  EXPECT_EQ(d.imc_read_bytes, kCacheLineSize);
  EXPECT_EQ(d.media_read_bytes, kXPLineSize);
}

TEST(CountersTest, ArithmeticCoversEveryField) {
  Counters a;
  a.imc_read_bytes = 10;
  a.rap_stall_cycles = 5;
  a.dram_write_bytes = 3;
  Counters b = a;
  b += a;
  EXPECT_EQ(b.imc_read_bytes, 20u);
  EXPECT_EQ(b.rap_stall_cycles, 10u);
  EXPECT_EQ(b.dram_write_bytes, 6u);
  const Counters d = b - a;
  EXPECT_EQ(d.imc_read_bytes, 10u);
  EXPECT_EQ(d.dram_write_bytes, 3u);
}

TEST(CountersTest, RatioHelpers) {
  Counters c;
  c.imc_write_bytes = 64;
  c.media_write_bytes = 256;
  EXPECT_DOUBLE_EQ(c.WriteAmplification(), 4.0);
  c.imc_read_bytes = 128;
  c.media_read_bytes = 256;
  EXPECT_DOUBLE_EQ(c.ReadAmplification(), 2.0);
  c.write_buffer_hits = 3;
  c.write_buffer_misses = 1;
  EXPECT_DOUBLE_EQ(c.WriteBufferHitRatio(), 0.75);
  const Counters zero;
  EXPECT_EQ(zero.WriteAmplification(), 0.0);  // no division by zero
}

TEST(PlatformTest, PresetFactories) {
  EXPECT_EQ(MakeG1System()->config().generation, Generation::kG1);
  EXPECT_EQ(MakeG2System()->config().generation, Generation::kG2);
  EXPECT_EQ(MakeSystem(Generation::kG2, 3)->mc().optane_dimm_count(), 3u);
  EXPECT_TRUE(G2EadrPlatform().eadr_enabled);
  EXPECT_FALSE(G2Platform().eadr_enabled);
}

}  // namespace
}  // namespace pmemsim
