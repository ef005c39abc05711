// Heavier randomized property suites: reference-model equivalence for the
// backing store, whole-system determinism, and crash-point fuzzing of the
// redo log's atomicity contract. The cache's reference model is in
// cache_reference_test.cc.

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "src/common/backing_store.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/datastores/cceh.h"
#include "src/persist/redo_log.h"
#include "src/workload/ycsb.h"

namespace pmemsim {
namespace {

// ---------- BackingStore vs a reference byte map ----------

class BackingStoreFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackingStoreFuzz, MatchesReferenceBytes) {
  BackingStore bs;
  std::map<Addr, uint8_t> ref;
  Rng rng(GetParam());
  const Addr span = 4 * kPageSize;
  for (int i = 0; i < 4000; ++i) {
    const Addr addr = rng.NextBelow(span);
    const size_t len = 1 + rng.NextBelow(200);
    if (rng.NextBelow(3) != 0) {
      std::vector<uint8_t> data(len);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      bs.Write(addr, data.data(), len);
      for (size_t k = 0; k < len; ++k) {
        ref[addr + k] = data[k];
      }
    } else {
      std::vector<uint8_t> out(len);
      bs.Read(addr, out.data(), len);
      for (size_t k = 0; k < len; ++k) {
        const auto it = ref.find(addr + k);
        const uint8_t expected = it == ref.end() ? 0 : it->second;
        ASSERT_EQ(out[k], expected) << "addr " << addr + k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackingStoreFuzz, ::testing::Values(7u, 8u));

// ---------- Whole-system determinism ----------

TEST(Determinism, IdenticalRunsProduceIdenticalClocksAndCounters) {
  auto run = [] {
    auto system = MakeG1System(2);
    ThreadContext& ctx = system->CreateThread();
    Cceh table(system.get(), ctx, 4, MemoryKind::kOptane);
    const auto keys = MakeLoadKeys(20000, 1234);
    for (const uint64_t k : keys) {
      table.Insert(ctx, k, k);
    }
    return std::make_pair(ctx.clock(), system->counters().media_write_bytes);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------- RedoLog crash-point fuzz: group atomicity ----------

class RedoCrashFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RedoCrashFuzz, GroupsAreAllOrNothing) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    auto system = MakeG1System(1);
    ThreadContext& ctx = system->CreateThread();
    const PmRegion data = system->AllocatePm(KiB(4));
    const PmRegion log_region = system->AllocatePm(KiB(4));

    // Each group writes a distinct marker value to a set of slots; a crash is
    // injected after a random number of protocol steps.
    const uint64_t groups = 1 + rng.NextBelow(5);
    const uint64_t crash_step = rng.NextBelow(groups * 3 + 1);
    std::vector<bool> committed(groups, false);
    uint64_t step = 0;
    bool crashed = false;
    {
      RedoLog log(system.get(), log_region);
      for (uint64_t g = 0; g < groups && !crashed; ++g) {
        const uint64_t slots = 1 + rng.NextBelow(4);
        for (uint64_t s2 = 0; s2 < slots && !crashed; ++s2) {
          const uint64_t value = (g + 1) * 1000 + s2;
          log.LogUpdate(ctx, data.base + (g * 8 + s2) * 64, &value, sizeof(value));
          crashed = ++step == crash_step;
        }
        if (crashed) {
          break;
        }
        log.Commit(ctx);
        committed[g] = true;
        crashed = ++step == crash_step;
        if (crashed) {
          break;
        }
        log.Apply(ctx);
        crashed = ++step == crash_step;
      }
    }

    RedoLog recovered(system.get(), log_region);
    recovered.Recover(ctx);
    for (uint64_t g = 0; g < groups; ++g) {
      const uint64_t first_slot_value = ctx.Load64(data.base + g * 8 * 64);
      if (committed[g]) {
        EXPECT_EQ(first_slot_value, (g + 1) * 1000) << "trial " << trial << " group " << g;
      } else {
        // Never committed: either untouched (0) — it must NOT be partially
        // applied with garbage (values always match the marker scheme if set).
        if (first_slot_value != 0) {
          EXPECT_EQ(first_slot_value, (g + 1) * 1000);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedoCrashFuzz, ::testing::Values(41u, 42u, 43u, 44u));

// ---------- CCEH under mixed insert/erase/get churn ----------

TEST(CcehChurn, StaysConsistentUnderMixedOps) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  Cceh table(system.get(), ctx, 4, MemoryKind::kOptane);
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(555);
  for (int i = 0; i < 40000; ++i) {
    const uint64_t key = 1 + rng.NextBelow(3000);
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {
        const uint64_t value = rng.Next() | 1;
        table.Insert(ctx, key, value);
        ref[key] = value;
        break;
      }
      case 2: {
        const bool erased = table.Erase(ctx, key);
        EXPECT_EQ(erased, ref.erase(key) > 0) << "key " << key;
        break;
      }
      default: {
        uint64_t v = 0;
        const bool found = table.Get(ctx, key, &v);
        const auto it = ref.find(key);
        ASSERT_EQ(found, it != ref.end()) << "key " << key;
        if (found) {
          EXPECT_EQ(v, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(table.size(), ref.size());
}

}  // namespace
}  // namespace pmemsim
