// Tests for the crash-consistency subsystem: PersistTracker durable-image
// semantics (ADR vs eADR), CrashInjector determinism, torn-write modeling,
// and the recovery validators across every crash workload.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
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

// The reference crash point: replays the workload from op 0 with Arm(), catches
// the CrashSignal, then materializes and validates. RunCrashPoints must agree
// with it field for field. `image`, when given, receives the first MiB of PM.
CrashPointResult RunPoint(const PlatformConfig& platform, const std::string& store,
                          const CrashWorkloadOptions& opts, uint64_t event_index,
                          uint64_t tear_seed,
                          PersistTracker::TearGranularity granularity =
                              PersistTracker::TearGranularity::kWord,
                          std::vector<uint8_t>* image = nullptr) {
  System system(platform);
  PersistTracker tracker(platform.eadr_enabled);
  tracker.Attach(&system);
  ThreadContext& ctx = system.CreateThread();
  auto workload = CrashWorkload::Create(store, opts);
  workload->Setup(system, ctx);
  CrashInjector injector;
  injector.Arm(event_index);
  tracker.StartEvents(&injector);
  bool crashed = false;
  try {
    workload->Run(ctx);
  } catch (const CrashSignal&) {
    crashed = true;
  }
  EXPECT_TRUE(crashed) << store << ": event " << event_index << " never fired";
  CrashPointResult result;
  if (!crashed) {
    return result;
  }
  result.event = event_index;
  result.kind = injector.fired_kind();
  result.crash_now = injector.crash_now();
  result.acked_ops = workload->acked_ops();
  System fresh(platform);
  result.mat = tracker.Materialize(&fresh.backing(), injector.crash_now(), tear_seed, granularity);
  if (image != nullptr) {
    image->resize(MiB(1));
    fresh.backing().Read(kPageSize, image->data(), image->size());
  }
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
  EXPECT_EQ(PlatformNames(), (std::vector<std::string>{"g1", "g2", "g2-eadr"}));
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

TEST(PersistTrackerTest, AdrWindowStatsArePinned) {
  // A seeded G1 ADR stream over a few hot lines that re-dirties lines while
  // their write-backs are still in flight, so the in-cache and in-WPQ sets
  // overlap. The window stats are pinned as literals.
  const PlatformConfig platform = G1Platform();
  System system(platform);
  PersistTracker tracker(platform.eadr_enabled);
  tracker.Attach(&system);
  ThreadContext& ctx = system.CreateThread();
  const PmRegion pm = system.AllocatePm(KiB(4));
  Rng rng(77);
  for (int i = 0; i < 3000; ++i) {
    const Addr line = pm.base + rng.NextBelow(6) * kCacheLineSize;
    const uint64_t op = rng.NextBelow(10);
    if (op < 5) {
      ctx.Store64(line + 8 * rng.NextBelow(8), rng.Next());
    } else if (op < 8) {
      ctx.Clwb(line);
    } else {
      ctx.Sfence();
    }
  }
  const PersistTracker::Stats& stats = tracker.stats();
  EXPECT_EQ(stats.samples, 2670u);
  EXPECT_EQ(stats.max_in_cache_bytes, 384u);
  EXPECT_EQ(stats.max_in_wpq_bytes, 384u);
  EXPECT_EQ(stats.max_vulnerable_bytes, 384u);
  EXPECT_EQ(stats.sum_vulnerable_bytes, 766784u);
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
  const CrashCalibration cal = CalibrateCrashWorkload(platform, "flatlog", opts);
  ASSERT_GT(cal.events, 0u);

  auto image_at = [&](uint64_t tear_seed) {
    std::vector<uint8_t> image;
    RunPoint(platform, "flatlog", opts, cal.events / 2, tear_seed,
             PersistTracker::TearGranularity::kWord, &image);
    return image;
  };
  EXPECT_EQ(image_at(42), image_at(42));
}

TEST(CrashInjectorTest, FiresDeterministicallyAcrossRuns) {
  const PlatformConfig platform = G1Platform();
  CrashWorkloadOptions opts;
  opts.ops = 64;
  opts.seed = 5;
  const CrashCalibration first = CalibrateCrashWorkload(platform, "redo", opts);
  const CrashCalibration second = CalibrateCrashWorkload(platform, "redo", opts);
  EXPECT_EQ(first.events, second.events);
  ASSERT_GT(first.events, 4u);

  const uint64_t index = first.events / 2;
  const CrashPointResult a = RunPoint(platform, "redo", opts, index, 3);
  const CrashPointResult b = RunPoint(platform, "redo", opts, index, 3);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.crash_now, b.crash_now);
  EXPECT_EQ(a.report.checks, b.report.checks);
  EXPECT_EQ(a.report.violations, b.report.violations);
}

constexpr uint64_t kPassTearSeed = 23;

// One RunCrashPoints pass over `events` must see, at each of them, exactly
// what a run abandoned there by Arm() + CrashSignal sees.
void ExpectPassMatchesReplay(const PlatformConfig& platform, const std::string& store,
                             const CrashWorkloadOptions& opts,
                             PersistTracker::TearGranularity granularity,
                             const std::vector<uint64_t>& events) {
  std::vector<CrashPointResult> pass;
  RunCrashPoints(platform, store, opts, events, kPassTearSeed, granularity,
                 [&](const CrashPointResult& r) { pass.push_back(r); });
  ASSERT_EQ(pass.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(store + " on " + platform.name + " at event " + std::to_string(events[i]));
    const CrashPointResult want = RunPoint(platform, store, opts, events[i],
                                           TearSeedFor(kPassTearSeed, events[i]), granularity);
    const CrashPointResult& got = pass[i];
    EXPECT_EQ(got.event, events[i]);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.crash_now, want.crash_now);
    EXPECT_EQ(got.acked_ops, want.acked_ops);
    EXPECT_EQ(got.mat.durable_writes, want.mat.durable_writes);
    EXPECT_EQ(got.mat.inflight_writes, want.mat.inflight_writes);
    EXPECT_EQ(got.mat.survived_writes, want.mat.survived_writes);
    EXPECT_EQ(got.mat.lost_writes, want.mat.lost_writes);
    EXPECT_EQ(got.mat.torn_writes, want.mat.torn_writes);
    EXPECT_EQ(got.report.checks, want.report.checks);
    EXPECT_EQ(got.report.violations, want.report.violations);
    EXPECT_EQ(got.report.messages, want.report.messages);
  }
}

// The same at events {0, n/4, n/2, n-1}.
void ExpectPassMatchesReplay(const PlatformConfig& platform, const std::string& store,
                             const CrashWorkloadOptions& opts,
                             PersistTracker::TearGranularity granularity) {
  const uint64_t n = CalibrateCrashWorkload(platform, store, opts).events;
  ASSERT_GT(n, 4u) << store << " on " << platform.name;
  ExpectPassMatchesReplay(platform, store, opts, granularity, {0, n / 4, n / 2, n - 1});
}

TEST(CrashPointsTest, SinglePassMatchesArmedReplay) {
  CrashWorkloadOptions opts;
  opts.ops = 240;
  opts.seed = 17;
  for (const char* platform : {"g1", "g2-eadr"}) {
    for (const std::string& store : CrashWorkload::StoreNames()) {
      ExpectPassMatchesReplay(*PlatformByName(platform), store, opts,
                              PersistTracker::TearGranularity::kWord);
    }
  }
  ExpectPassMatchesReplay(G1Platform(), "fastfair", opts,
                          PersistTracker::TearGranularity::kSubword);
  // Violations too: their counts and messages must match. Without the commit
  // barrier CCEH only persists once its lines start leaving the L3.
  opts.ops = 2000;
  opts.break_persist = true;
  ExpectPassMatchesReplay(G1Platform(), "cceh", opts, PersistTracker::TearGranularity::kWord);
}

TEST(CrashPointsTest, SinglePassMatchesArmedReplayWhereWritesAreInFlight) {
  // Most points have no write in flight, so the tear seed goes unused. Find
  // the points of a short FAST&FAIR run that do, and compare those.
  CrashWorkloadOptions opts;
  opts.ops = 120;
  opts.seed = 17;
  const PlatformConfig platform = G1Platform();
  const auto granularity = PersistTracker::TearGranularity::kSubword;
  std::vector<uint64_t> every(CalibrateCrashWorkload(platform, "fastfair", opts).events);
  for (uint64_t i = 0; i < every.size(); ++i) {
    every[i] = i;
  }
  std::vector<uint64_t> in_flight;
  uint64_t torn = 0;
  RunCrashPoints(platform, "fastfair", opts, every, kPassTearSeed, granularity,
                 [&](const CrashPointResult& r) {
                   if (r.mat.inflight_writes > 0) {
                     in_flight.push_back(r.event);
                     torn += r.mat.torn_writes;
                   }
                 });
  ASSERT_FALSE(in_flight.empty());
  EXPECT_GT(torn, 0u);
  ExpectPassMatchesReplay(platform, "fastfair", opts, granularity, in_flight);
}

TEST(CrashPointsTest, UnreachedEventFailsTheCheck) {
  // An event past the end of the run never fires; RunCrashPoints must say so.
  CrashWorkloadOptions opts;
  opts.ops = 64;
  const PlatformConfig platform = G1Platform();
  const uint64_t n = CalibrateCrashWorkload(platform, "redo", opts).events;
  ScopedCheckCapture capture;
  size_t points = 0;
  EXPECT_THROW(RunCrashPoints(platform, "redo", opts, {n / 2, n}, 1,
                              PersistTracker::TearGranularity::kWord,
                              [&](const CrashPointResult&) { ++points; }),
               CheckFailure);
  EXPECT_EQ(points, 1u);
}

TEST(RecoveryValidatorTest, AllStoresPassAtSampledCrashPoints) {
  CrashWorkloadOptions opts;
  opts.ops = 240;
  opts.seed = 9;
  for (const std::string& platform_name : {std::string("g1"), std::string("g2-eadr")}) {
    const PlatformConfig platform = *PlatformByName(platform_name);
    for (const std::string& store : CrashWorkload::StoreNames()) {
      const CrashCalibration cal = CalibrateCrashWorkload(platform, store, opts);
      ASSERT_GT(cal.events, 4u) << store << " on " << platform_name;
      for (const uint64_t index : {cal.events / 4, cal.events / 2, cal.events - 1}) {
        const CrashPointResult r =
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
    const CrashCalibration cal = CalibrateCrashWorkload(platform, store, opts);
    ASSERT_GT(cal.events, 2u);
    const CrashPointResult r =
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
  const CrashCalibration cal = CalibrateCrashWorkload(platform, "cceh", opts);
  ASSERT_GT(cal.events, 0u);
  const CrashPointResult r = RunPoint(platform, "cceh", opts, cal.events - 1, 7);
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
    exp.attempted.Insert(key, true);
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
  const CrashCalibration adr = CalibrateCrashWorkload(*PlatformByName("g2"), "cceh", opts);
  const CrashCalibration eadr =
      CalibrateCrashWorkload(*PlatformByName("g2-eadr"), "cceh", opts);
  EXPECT_GT(adr.window.max_vulnerable_bytes, 0u);
  EXPECT_EQ(eadr.window.max_vulnerable_bytes, 0u);
  EXPECT_LT(eadr.window.max_vulnerable_bytes, adr.window.max_vulnerable_bytes);
  EXPECT_GT(adr.events, 0u);
  EXPECT_GT(eadr.events, 0u);
}

}  // namespace
}  // namespace pmemsim
