// Tests for persistence primitives and the redo log, including crash
// scenarios (committed groups replayed, uncommitted discarded) and ring
// wrap-around with epoch tagging.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <ostream>
#include <vector>

#include "src/core/platform.h"
#include "src/datastores/chase_list.h"
#include "src/persist/barrier.h"
#include "src/persist/redo_log.h"
#include "src/trace/recorder.h"

namespace pmemsim {

// Failure messages name trace ops (gtest finds this by argument lookup).
void PrintTo(TraceOp op, std::ostream* os) { *os << TraceOpName(op); }

namespace {

struct Fixture {
  std::unique_ptr<System> system = MakeG1System(1);
  ThreadContext* ctx = &system->CreateThread();
  PmRegion pm = system->AllocatePm(KiB(64));
};

TEST(BarrierTest, FlushRangeCoversEveryLine) {
  Fixture f;
  for (Addr a = f.pm.base; a < f.pm.base + 256; a += 64) {
    f.ctx->Store64(a, 1);
  }
  FlushRange(*f.ctx, f.pm.base, 256);
  f.ctx->Sfence();
  EXPECT_EQ(f.system->counters().imc_write_bytes, 4 * kCacheLineSize);
}

TEST(BarrierTest, FlushRangeHandlesUnalignedSpans) {
  Fixture f;
  f.ctx->Store64(f.pm.base + 56, 1);  // straddles into the next line
  f.ctx->Store64(f.pm.base + 64, 1);
  Persist(*f.ctx, f.pm.base + 56, 16);
  EXPECT_EQ(f.system->counters().imc_write_bytes, 2 * kCacheLineSize);
}

// The TraceOp sequence `run` issues on a fresh G1 thread.
std::vector<TraceOp> RecordOps(const std::function<void(Fixture&)>& run) {
  Fixture f;
  TraceRecorder recorder;
  f.ctx->SetTraceRecorder(&recorder, 0);
  run(f);
  std::vector<TraceOp> ops;
  for (const TraceRecord& r : recorder.Take("ops", {}).records) {
    ops.push_back(r.op);
  }
  return ops;
}

TEST(BarrierTest, PersistentStoreModes) {
  struct Case {
    PersistMode mode;
    const char* name;
    std::vector<TraceOp> ops;
  };
  const Case cases[] = {
      {PersistMode::kClwbSfence, "clwb+sfence",
       {TraceOp::kStore64, TraceOp::kClwb, TraceOp::kSfence}},
      {PersistMode::kClwbMfence, "clwb+mfence",
       {TraceOp::kStore64, TraceOp::kClwb, TraceOp::kMfence}},
      {PersistMode::kNtStoreSfence, "nt-store+sfence", {TraceOp::kNtStore64, TraceOp::kSfence}},
      {PersistMode::kNtStoreMfence, "nt-store+mfence", {TraceOp::kNtStore64, TraceOp::kMfence}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_STREQ(PersistModeName(c.mode), c.name);
    EXPECT_EQ(RecordOps([&](Fixture& f) { PersistentStore64(*f.ctx, f.pm.base, 99, c.mode); }),
              c.ops);
    // The two halves issue exactly what PersistentStore64 issues.
    EXPECT_EQ(RecordOps([&](Fixture& f) {
                StoreAndFlush64(*f.ctx, f.pm.base, 99, c.mode);
                PersistFence(*f.ctx, c.mode);
              }),
              c.ops);
    Fixture g;
    PersistentStore64(*g.ctx, g.pm.base, 99, c.mode);
    EXPECT_EQ(g.ctx->outstanding_persists(), 0u);
    EXPECT_EQ(g.ctx->Load64(g.pm.base), 99u);
  }
}

// Six updates under each persistency model, fenced as ChaseList fences them:
// the mode's fence after every update (strict) or every 4th (epoch 4), and a
// closing sfence for a relaxed pass or a trailing epoch.
TEST(BarrierTest, PersistencyPlacesTheModesFence) {
  constexpr uint64_t kUpdates = 6;
  constexpr uint64_t kEpoch = 4;
  const TraceOp st = TraceOp::kNtStore64;
  const TraceOp mf = TraceOp::kMfence;
  const TraceOp sf = TraceOp::kSfence;
  struct Case {
    const char* name;
    Persistency persistency;
    std::vector<TraceOp> ops;  // under nt-store+mfence
  };
  const Case cases[] = {
      {"strict", Persistency::kStrict, {st, mf, st, mf, st, mf, st, mf, st, mf, st, mf}},
      {"epoch-4", Persistency::kEpoch, {st, st, st, st, mf, st, st, sf}},
      {"relaxed", Persistency::kRelaxed, {st, st, st, st, st, st, sf}},
  };
  const PersistMode mode = PersistMode::kNtStoreMfence;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(RecordOps([&](Fixture& f) {
                for (uint64_t i = 0; i < kUpdates; ++i) {
                  StoreAndFlush64(*f.ctx, f.pm.At(i * kXPLineSize), i, mode);
                  if (c.persistency == Persistency::kStrict ||
                      (c.persistency == Persistency::kEpoch && (i + 1) % kEpoch == 0)) {
                    PersistFence(*f.ctx, mode);
                  }
                }
                if (c.persistency != Persistency::kStrict) {
                  f.ctx->Sfence();
                }
              }),
              c.ops);
    EXPECT_EQ(RecordOps([&](Fixture& f) {
                ChaseList list(f.system.get(), f.system->AllocatePm(KiB(4), kXPLineSize),
                               /*sequential=*/true, /*seed=*/0);
                list.PureWrite(*f.ctx, kUpdates, mode, c.persistency, kEpoch);
              }),
              c.ops);
  }
}

TEST(BarrierTest, ModePredicates) {
  EXPECT_TRUE(UsesClwb(PersistMode::kClwbSfence));
  EXPECT_TRUE(UsesClwb(PersistMode::kClwbMfence));
  EXPECT_FALSE(UsesClwb(PersistMode::kNtStoreSfence));
  EXPECT_TRUE(UsesMfence(PersistMode::kClwbMfence));
  EXPECT_FALSE(UsesMfence(PersistMode::kClwbSfence));
}

// ---------- RedoLog ----------

struct LogFixture {
  std::unique_ptr<System> system = MakeG1System(1);
  ThreadContext* ctx = &system->CreateThread();
  PmRegion data = system->AllocatePm(KiB(16));
  PmRegion log_region = system->AllocatePm(KiB(4));
};

TEST(RedoLogTest, LogCommitApplyWritesTargets) {
  LogFixture f;
  RedoLog log(f.system.get(), f.log_region);
  const uint64_t v1 = 0x1111, v2 = 0x2222;
  log.LogUpdate(*f.ctx, f.data.base, &v1, sizeof(v1));
  log.LogUpdate(*f.ctx, f.data.base + 8, &v2, sizeof(v2));
  EXPECT_EQ(log.open_entries(), 2u);
  log.Commit(*f.ctx);
  log.Apply(*f.ctx);
  EXPECT_EQ(log.open_entries(), 0u);
  EXPECT_EQ(f.ctx->Load64(f.data.base), v1);
  EXPECT_EQ(f.ctx->Load64(f.data.base + 8), v2);
}

TEST(RedoLogTest, CommittedGroupSurvivesCrash) {
  LogFixture f;
  {
    RedoLog log(f.system.get(), f.log_region);
    const uint64_t v = 0xC0FFEE;
    log.LogUpdate(*f.ctx, f.data.base + 128, &v, sizeof(v));
    log.Commit(*f.ctx);
    // Crash before Apply: the target was never written.
  }
  EXPECT_EQ(f.ctx->Load64(f.data.base + 128), 0u);
  RedoLog recovered(f.system.get(), f.log_region);
  EXPECT_EQ(recovered.Recover(*f.ctx), 1u);
  EXPECT_EQ(f.ctx->Load64(f.data.base + 128), 0xC0FFEEu);
}

TEST(RedoLogTest, UncommittedGroupDiscarded) {
  LogFixture f;
  {
    RedoLog log(f.system.get(), f.log_region);
    const uint64_t v = 0xBAD;
    log.LogUpdate(*f.ctx, f.data.base, &v, sizeof(v));
    // Crash before Commit.
  }
  RedoLog recovered(f.system.get(), f.log_region);
  EXPECT_EQ(recovered.Recover(*f.ctx), 0u);
  EXPECT_EQ(f.ctx->Load64(f.data.base), 0u);
}

TEST(RedoLogTest, ReplayPreservesGroupOrder) {
  LogFixture f;
  {
    RedoLog log(f.system.get(), f.log_region);
    const uint64_t old_v = 1, new_v = 2;
    log.LogUpdate(*f.ctx, f.data.base, &old_v, sizeof(old_v));
    log.Commit(*f.ctx);
    log.LogUpdate(*f.ctx, f.data.base, &new_v, sizeof(new_v));
    log.Commit(*f.ctx);
    // Crash: both groups committed, neither applied.
  }
  RedoLog recovered(f.system.get(), f.log_region);
  EXPECT_EQ(recovered.Recover(*f.ctx), 2u);
  EXPECT_EQ(f.ctx->Load64(f.data.base), 2u);  // later group wins
}

TEST(RedoLogTest, WrapAroundBumpsEpoch) {
  LogFixture f;
  RedoLog log(f.system.get(), f.log_region);
  const uint64_t records = log.capacity_records();
  const uint64_t epoch0 = log.epoch();
  uint64_t v = 5;
  for (uint64_t i = 0; i < records + 4; ++i) {
    log.LogUpdate(*f.ctx, f.data.base + (i % 64) * 64, &v, sizeof(v));
    log.Commit(*f.ctx);
    log.Apply(*f.ctx);
  }
  EXPECT_GT(log.epoch(), epoch0);
}

TEST(RedoLogTest, RecoveryAfterWrapReplaysOnlyNewestEpoch) {
  LogFixture f;
  {
    RedoLog log(f.system.get(), f.log_region);
    // Fill more than one full lap; each group targets a distinct address with
    // a value encoding its sequence number.
    const uint64_t records = log.capacity_records();
    for (uint64_t i = 0; i < records * 2; ++i) {
      const uint64_t v = 1000 + i;
      log.LogUpdate(*f.ctx, f.data.base + (i % 32) * 64, &v, sizeof(v));
      log.Commit(*f.ctx);
      log.Apply(*f.ctx);
    }
    // Crash here: the ring holds the final lap's committed groups.
  }
  RedoLog recovered(f.system.get(), f.log_region);
  const size_t replayed = recovered.Recover(*f.ctx);
  EXPECT_GT(replayed, 0u);
  EXPECT_LE(replayed, f.log_region.size / RedoLog::kRecordSize);
  // Any replayed value must come from the final lap (no stale epochs).
  for (uint64_t slot = 0; slot < 32; ++slot) {
    const uint64_t v = f.ctx->Load64(f.data.base + slot * 64);
    if (v != 0) {
      EXPECT_GE(v, 1000 + recovered.capacity_records());
    }
  }
}

TEST(RedoLogTest, OpenGroupSurvivesWrap) {
  LogFixture f;
  RedoLog log(f.system.get(), f.log_region);
  const uint64_t records = log.capacity_records();
  // Leave one slot before the wrap, then log a multi-update group across it.
  uint64_t v = 7;
  for (uint64_t i = 0; i < records - 1; ++i) {
    log.LogUpdate(*f.ctx, f.data.base, &v, sizeof(v));
    log.Commit(*f.ctx);
    log.Apply(*f.ctx);
  }
  const uint64_t a = 0xA, b = 0xB;
  log.LogUpdate(*f.ctx, f.data.base + 512, &a, sizeof(a));  // wraps mid-group
  log.LogUpdate(*f.ctx, f.data.base + 576, &b, sizeof(b));
  log.Commit(*f.ctx);
  // Crash before apply: recovery must see the whole group in the new epoch.
  RedoLog recovered(f.system.get(), f.log_region);
  EXPECT_EQ(recovered.Recover(*f.ctx), 2u);
  EXPECT_EQ(f.ctx->Load64(f.data.base + 512), 0xAu);
  EXPECT_EQ(f.ctx->Load64(f.data.base + 576), 0xBu);
}

TEST(RedoLogTest, TornCommitFlagTreatedAsUncommitted) {
  // The commit protocol leans on x86 8-byte failure atomicity: kCommitMagic
  // lives inside one aligned word (the static_asserts in redo_log.h pin it
  // there), so a crash mid-commit leaves that word either fully written or
  // untouched — never half a magic. Simulate the untouched half and check
  // recovery treats the group as not committed.
  LogFixture f;
  {
    RedoLog log(f.system.get(), f.log_region);
    const uint64_t v1 = 0x11, v2 = 0x22;
    log.LogUpdate(*f.ctx, f.data.base, &v1, sizeof(v1));
    log.Commit(*f.ctx);  // group 1: cleanly committed (records 0-1)
    log.LogUpdate(*f.ctx, f.data.base + 64, &v2, sizeof(v2));
    log.Commit(*f.ctx);  // group 2: its commit flag is torn below (record 3)
  }
  // Power failed as group 2's commit record was written: the aligned word
  // holding the magic never reached the media.
  const Addr commit2 = f.log_region.base + 3 * RedoLog::kRecordSize;
  const uint64_t zero = 0;
  f.system->backing().Write(commit2 + RedoLog::kLenOffset, &zero, sizeof(zero));
  RedoLog recovered(f.system.get(), f.log_region);
  EXPECT_EQ(recovered.Recover(*f.ctx), 1u);  // only group 1 replays
  EXPECT_EQ(f.ctx->Load64(f.data.base), 0x11u);
  EXPECT_EQ(f.ctx->Load64(f.data.base + 64), 0u);
}

TEST(RedoLogTest, FreshLogLinesAvoidSameLineStalls) {
  // The design point of §4.2: consecutive log appends persist quickly because
  // they never target a recently persisted cacheline.
  LogFixture f;
  RedoLog log(f.system.get(), f.log_region);
  uint64_t v = 1;
  log.LogUpdate(*f.ctx, f.data.base, &v, sizeof(v));
  const Cycles before = f.ctx->clock();
  log.LogUpdate(*f.ctx, f.data.base + 64, &v, sizeof(v));
  const Cycles append_cost = f.ctx->clock() - before;
  EXPECT_LT(append_cost, G1Platform().optane.same_line_stall_window);
}

}  // namespace
}  // namespace pmemsim
