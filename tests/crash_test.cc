// Tests for the crash-consistency subsystem: PersistTracker durable-image
// semantics (ADR vs eADR), CrashInjector determinism, torn-write modeling,
// and the recovery validators across every crash workload.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/common/random.h"
#include "src/core/system.h"
#include "src/crash/crash_injector.h"
#include "src/crash/persist_tracker.h"
#include "src/crash/recovery_validator.h"
#include "src/crash/workloads.h"
#include "src/datastores/cceh.h"

namespace pmemsim {
namespace {

struct Calibration {
  uint64_t events = 0;
  uint64_t acked = 0;
  PersistTracker::Stats stats;
};

Calibration Calibrate(const PlatformConfig& platform, const std::string& store,
                      const CrashWorkloadOptions& opts) {
  System system(platform);
  PersistTracker tracker(platform.eadr_enabled);
  tracker.Attach(&system);
  ThreadContext& ctx = system.CreateThread();
  auto workload = CrashWorkload::Create(store, opts);
  workload->Setup(system, ctx);
  CrashInjector counter;
  tracker.StartEvents(&counter);
  workload->Run(ctx);
  Calibration result;
  result.events = counter.events_seen();
  result.acked = workload->acked_ops();
  result.stats = tracker.stats();
  return result;
}

struct PointResult {
  bool crashed = false;
  CrashEventKind kind = CrashEventKind::kWpqAccept;
  Cycles crash_cycles = 0;
  ValidationReport report;
};

PointResult RunPoint(const PlatformConfig& platform, const std::string& store,
                     const CrashWorkloadOptions& opts, uint64_t event_index,
                     uint64_t tear_seed,
                     PersistTracker::TearGranularity granularity =
                         PersistTracker::TearGranularity::kWord) {
  System system(platform);
  PersistTracker tracker(platform.eadr_enabled);
  tracker.Attach(&system);
  ThreadContext& ctx = system.CreateThread();
  auto workload = CrashWorkload::Create(store, opts);
  workload->Setup(system, ctx);
  CrashInjector injector;
  injector.Arm(event_index);
  tracker.StartEvents(&injector);
  PointResult result;
  try {
    workload->Run(ctx);
  } catch (const CrashSignal&) {
    result.crashed = true;
  }
  EXPECT_TRUE(result.crashed) << store << ": event " << event_index << " never fired";
  if (!result.crashed) {
    return result;
  }
  result.kind = injector.fired_kind();
  result.crash_cycles = injector.crash_now();
  System fresh(platform);
  tracker.Materialize(&fresh.backing(), injector.crash_now(), tear_seed, granularity);
  ThreadContext& vctx = fresh.CreateThread();
  workload->Validate(fresh, vctx, &result.report);
  return result;
}

TEST(PlatformByNameTest, ResolvesPresetsCaseInsensitively) {
  ASSERT_TRUE(PlatformByName("g1").has_value());
  EXPECT_EQ(PlatformByName("g1")->generation, Generation::kG1);
  ASSERT_TRUE(PlatformByName("G2").has_value());
  EXPECT_FALSE(PlatformByName("G2")->eadr_enabled);
  ASSERT_TRUE(PlatformByName("g2-eadr").has_value());
  EXPECT_TRUE(PlatformByName("g2-eadr")->eadr_enabled);
  ASSERT_TRUE(PlatformByName("G2-eADR").has_value());
  EXPECT_FALSE(PlatformByName("g3").has_value());
  EXPECT_FALSE(PlatformByName("").has_value());
}

TEST(PersistTrackerTest, AdrUnflushedStoreIsLost) {
  const PlatformConfig platform = G1Platform();
  System system(platform);
  PersistTracker tracker(platform.eadr_enabled);
  tracker.Attach(&system);
  ThreadContext& ctx = system.CreateThread();
  const PmRegion pm = system.AllocatePm(KiB(4));
  ctx.Store64(pm.base, 0xD1DD1Dull);
  // No flush, no fence: the line never reached the iMC.
  System fresh(platform);
  tracker.Materialize(&fresh.backing(), ctx.clock() + 1000000, 1,
                      PersistTracker::TearGranularity::kWord);
  EXPECT_EQ(fresh.backing().ReadU64(pm.base), 0u);
}

TEST(PersistTrackerTest, AdrStoreDurableAtWpqAccept) {
  const PlatformConfig platform = G1Platform();
  System system(platform);
  PersistTracker tracker(platform.eadr_enabled);
  tracker.Attach(&system);
  ThreadContext& ctx = system.CreateThread();
  const PmRegion pm = system.AllocatePm(KiB(4));
  ctx.Store64(pm.base, 0xD0D0ull);
  ctx.Clwb(pm.base);
  ctx.Sfence();
  // After the fence the write-back was accepted: durable at any later crash.
  System fresh(platform);
  tracker.Materialize(&fresh.backing(), ctx.clock(), 1,
                      PersistTracker::TearGranularity::kWord);
  EXPECT_EQ(fresh.backing().ReadU64(pm.base), 0xD0D0ull);
  // But a crash at cycle 0 predates the WPQ acceptance: nothing is durable
  // with certainty (the write may surface torn or complete, seed-dependent).
  EXPECT_EQ(tracker.recorded_writes(), 1u);
}

TEST(PersistTrackerTest, EadrStoreDurableAtRetire) {
  const PlatformConfig platform = G2EadrPlatform();
  System system(platform);
  PersistTracker tracker(platform.eadr_enabled);
  tracker.Attach(&system);
  ThreadContext& ctx = system.CreateThread();
  const PmRegion pm = system.AllocatePm(KiB(4));
  ctx.Store64(pm.base, 0xEADEADull);
  // No flush needed: the caches are in the persistence domain.
  System fresh(platform);
  tracker.Materialize(&fresh.backing(), 0, 1, PersistTracker::TearGranularity::kWord);
  EXPECT_EQ(fresh.backing().ReadU64(pm.base), 0xEADEADull);
}

TEST(PersistTrackerTest, TornWritesRespectWordGranularity) {
  const PlatformConfig platform = G1Platform();
  uint8_t ones[kCacheLineSize];
  std::memset(ones, 0xFF, sizeof(ones));
  for (uint64_t seed = 0; seed < 24; ++seed) {
    System system(platform);
    PersistTracker tracker(platform.eadr_enabled);
    tracker.Attach(&system);
    ThreadContext& ctx = system.CreateThread();
    const PmRegion pm = system.AllocatePm(KiB(4));
    ctx.NtStoreLine(pm.base, ones);
    // Crash at cycle 0: the nt-store is in flight; whatever fate the seed
    // draws, each aligned 8-byte word must be all-ones or all-zeros.
    System fresh(platform);
    tracker.Materialize(&fresh.backing(), 0, seed, PersistTracker::TearGranularity::kWord);
    for (uint64_t w = 0; w < kCacheLineSize; w += 8) {
      const uint64_t word = fresh.backing().ReadU64(pm.base + w);
      EXPECT_TRUE(word == 0 || word == ~0ull) << "seed " << seed << " word " << w;
    }
    // Sub-word mode: a word may additionally keep a byte prefix (0xFF bytes
    // followed by zeros — never an interior hole).
    System fresh_sub(platform);
    tracker.Materialize(&fresh_sub.backing(), 0, seed,
                        PersistTracker::TearGranularity::kSubword);
    for (uint64_t w = 0; w < kCacheLineSize; w += 8) {
      uint8_t bytes[8];
      fresh_sub.backing().Read(pm.base + w, bytes, sizeof(bytes));
      bool seen_zero = false;
      for (const uint8_t b : bytes) {
        EXPECT_TRUE(b == 0x00 || b == 0xFF);
        EXPECT_FALSE(seen_zero && b == 0xFF) << "interior hole, seed " << seed;
        seen_zero = seen_zero || b == 0x00;
      }
    }
  }
}

TEST(PersistTrackerTest, MaterializeIsDeterministicForSameSeed) {
  const PlatformConfig platform = G1Platform();
  CrashWorkloadOptions opts;
  opts.ops = 200;
  opts.seed = 11;
  const Calibration cal = Calibrate(platform, "flatlog", opts);
  ASSERT_GT(cal.events, 0u);

  auto image_at = [&](uint64_t tear_seed) {
    System system(platform);
    PersistTracker tracker(platform.eadr_enabled);
    tracker.Attach(&system);
    ThreadContext& ctx = system.CreateThread();
    auto workload = CrashWorkload::Create("flatlog", opts);
    workload->Setup(system, ctx);
    CrashInjector injector;
    injector.Arm(cal.events / 2);
    tracker.StartEvents(&injector);
    bool crashed = false;
    try {
      workload->Run(ctx);
    } catch (const CrashSignal&) {
      crashed = true;
    }
    EXPECT_TRUE(crashed);
    System fresh(platform);
    tracker.Materialize(&fresh.backing(), injector.crash_now(), tear_seed,
                        PersistTracker::TearGranularity::kWord);
    std::vector<uint8_t> image(MiB(1));
    fresh.backing().Read(kPageSize, image.data(), image.size());
    return image;
  };
  EXPECT_EQ(image_at(42), image_at(42));
}

TEST(CrashInjectorTest, FiresDeterministicallyAcrossRuns) {
  const PlatformConfig platform = G1Platform();
  CrashWorkloadOptions opts;
  opts.ops = 64;
  opts.seed = 5;
  const Calibration first = Calibrate(platform, "redo", opts);
  const Calibration second = Calibrate(platform, "redo", opts);
  EXPECT_EQ(first.events, second.events);
  ASSERT_GT(first.events, 4u);

  const uint64_t index = first.events / 2;
  const PointResult a = RunPoint(platform, "redo", opts, index, 3);
  const PointResult b = RunPoint(platform, "redo", opts, index, 3);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.crash_cycles, b.crash_cycles);
  EXPECT_EQ(a.report.checks, b.report.checks);
  EXPECT_EQ(a.report.violations, b.report.violations);
}

TEST(RecoveryValidatorTest, AllStoresPassAtSampledCrashPoints) {
  CrashWorkloadOptions opts;
  opts.ops = 240;
  opts.seed = 9;
  for (const std::string& platform_name : {std::string("g1"), std::string("g2-eadr")}) {
    const PlatformConfig platform = *PlatformByName(platform_name);
    for (const std::string& store : CrashWorkload::StoreNames()) {
      const Calibration cal = Calibrate(platform, store, opts);
      ASSERT_GT(cal.events, 4u) << store << " on " << platform_name;
      for (const uint64_t index : {cal.events / 4, cal.events / 2, cal.events - 1}) {
        const PointResult r =
            RunPoint(platform, store, opts, index, Mix64(opts.seed ^ index));
        EXPECT_EQ(r.report.violations, 0u)
            << store << " on " << platform_name << " at event " << index << ": "
            << (r.report.messages.empty() ? "" : r.report.messages.front());
        EXPECT_GT(r.report.checks, 0u);
      }
    }
  }
}

TEST(RecoveryValidatorTest, SubwordTearsAlsoPass) {
  // Sub-8-byte tears may only surface where recovery is robust to them; the
  // validators must stay clean (magic words and flags sit in aligned words).
  const PlatformConfig platform = G1Platform();
  CrashWorkloadOptions opts;
  opts.ops = 240;
  opts.seed = 13;
  for (const std::string& store : CrashWorkload::StoreNames()) {
    const Calibration cal = Calibrate(platform, store, opts);
    ASSERT_GT(cal.events, 2u);
    const PointResult r =
        RunPoint(platform, store, opts, cal.events / 2, Mix64(opts.seed),
                 PersistTracker::TearGranularity::kSubword);
    EXPECT_EQ(r.report.violations, 0u)
        << store << ": " << (r.report.messages.empty() ? "" : r.report.messages.front());
  }
}

TEST(RecoveryValidatorTest, BrokenPersistVariantIsCaught) {
  // Dropping the CCEH slot-commit barrier must produce violations: acked
  // inserts sit in volatile caches and vanish at the crash.
  const PlatformConfig platform = G1Platform();
  CrashWorkloadOptions opts;
  opts.ops = 2000;
  opts.seed = 7;
  opts.break_persist = true;
  const Calibration cal = Calibrate(platform, "cceh", opts);
  ASSERT_GT(cal.events, 0u);
  const PointResult r = RunPoint(platform, "cceh", opts, cal.events - 1, 7);
  EXPECT_GT(r.report.violations, 0u);
}

TEST(ValidationReportTest, BuildsMessagesOnlyForKeptViolations) {
  ValidationReport report;
  int built = 0;
  const auto message = [&] {
    ++built;
    return "violation " + std::to_string(built);
  };
  report.Check(true, message);
  EXPECT_EQ(built, 0);
  for (size_t i = 0; i < ValidationReport::kMaxMessages + 3; ++i) {
    report.Check(false, message);
  }
  EXPECT_EQ(report.checks, ValidationReport::kMaxMessages + 4);
  EXPECT_EQ(report.violations, ValidationReport::kMaxMessages + 3);
  EXPECT_EQ(built, static_cast<int>(ValidationReport::kMaxMessages));
  ASSERT_EQ(report.messages.size(), ValidationReport::kMaxMessages);
  EXPECT_EQ(report.messages.front(), "violation 1");
}

// The address of `key`'s slot in a CCEH image, found by scanning every live
// segment (0 if absent).
Addr FindCcehSlot(const BackingStore& image, const CcehExpectation& exp, uint64_t key) {
  for (uint64_t i = 0; i < (1ull << exp.global_depth); ++i) {
    const Addr segment = image.ReadU64(exp.directory + i * 8);
    for (uint64_t b = 0; b < Cceh::kBucketsPerSegment; ++b) {
      const Addr bucket = segment + Cceh::kSegmentHeaderSize + b * kCacheLineSize;
      for (uint64_t slot = 0; slot < Cceh::kSlotsPerBucket; ++slot) {
        if (image.ReadU64(bucket + slot * Cceh::kSlotSize) == key) {
          return bucket + slot * Cceh::kSlotSize;
        }
      }
    }
  }
  return 0;
}

TEST(RecoveryValidatorTest, CcehReportsCorruptedAckedValue) {
  System system(G1Platform());
  ThreadContext& ctx = system.CreateThread();
  Cceh cceh(&system, ctx, /*initial_depth=*/1, MemoryKind::kOptane);
  CcehExpectation exp;
  for (uint64_t i = 0; i < 64; ++i) {
    const uint64_t key = Mix64(i) | 1;
    const uint64_t value = Mix64(key) | 1;
    ASSERT_TRUE(cceh.Insert(ctx, key, value));
    exp.attempted.insert(key);
    exp.acked.emplace_back(key, value);
  }
  exp.directory = cceh.directory_addr();
  exp.global_depth = cceh.global_depth();

  ValidationReport clean;
  ValidateCceh(system.backing(), exp, &clean);
  EXPECT_EQ(clean.violations, 0u);
  EXPECT_EQ(clean.checks, 2 * exp.acked.size());  // found + value, per acked key

  const auto [key, value] = exp.acked[17];
  const Addr slot = FindCcehSlot(system.backing(), exp, key);
  ASSERT_NE(slot, 0u);
  system.backing().WriteU64(slot + 8, 12345);
  ValidationReport report;
  ValidateCceh(system.backing(), exp, &report);
  EXPECT_EQ(report.checks, clean.checks);
  EXPECT_EQ(report.violations, 1u);
  ASSERT_EQ(report.messages.size(), 1u);
  const std::string want =
      "cceh: key " + std::to_string(key) + " has value 12345, want " + std::to_string(value);
  EXPECT_EQ(report.messages.front(), want);
}

TEST(PersistTrackerTest, EadrVulnerableWindowStrictlySmaller) {
  // The eADR-vs-ADR contract: the vulnerable-byte window under eADR must be
  // strictly smaller (zero: nothing volatile holds persistent state).
  CrashWorkloadOptions opts;
  opts.ops = 240;
  opts.seed = 21;
  const Calibration adr = Calibrate(*PlatformByName("g2"), "cceh", opts);
  const Calibration eadr = Calibrate(*PlatformByName("g2-eadr"), "cceh", opts);
  EXPECT_GT(adr.stats.max_vulnerable_bytes, 0u);
  EXPECT_EQ(eadr.stats.max_vulnerable_bytes, 0u);
  EXPECT_LT(eadr.stats.max_vulnerable_bytes, adr.stats.max_vulnerable_bytes);
  EXPECT_GT(adr.stats.events, 0u);
  EXPECT_GT(eadr.stats.events, 0u);
}

}  // namespace
}  // namespace pmemsim
