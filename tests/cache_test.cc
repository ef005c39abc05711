// Tests for the CPU cache model: set-associative behavior, LRU, flush
// semantics (G1 invalidate vs G2 retain), timed pending invalidation,
// prefetch fill arrival, and the three prefetcher trigger rules.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/cache/cache.h"
#include "src/cache/hierarchy.h"
#include "src/cache/prefetcher.h"
#include "src/common/config.h"
#include "src/common/random.h"
#include "src/imc/memory_controller.h"
#include "src/trace/registry.h"

namespace pmemsim {

struct SetAssocCacheTestPeer {
  static constexpr Addr kValid = SetAssocCache::kValid;
  static constexpr Addr kPrefetched = SetAssocCache::kPrefetched;

  static size_t Base(const SetAssocCache& cache, Addr line) {
    return cache.SetIndex(CacheLineBase(line)) * cache.stride_;
  }
  // Overwrites way `way`'s tag word in `line`'s set, leaving its mask bits.
  static void SetTagWord(SetAssocCache& cache, Addr line, uint32_t way, Addr word) {
    cache.Tag(Base(cache, line) + way) = word;
  }
  static uint8_t Fingerprint(const SetAssocCache& cache, Addr line) {
    return cache.Fingerprint(CacheLineBase(line));
  }
  // Overwrites lane `lane`'s fingerprint or age byte in `line`'s set; lanes
  // from ways() up to 31 are the meta line's padding.
  static void SetFingerprint(SetAssocCache& cache, Addr line, uint32_t lane, uint8_t fp) {
    cache.Meta(Base(cache, line))[lane] = fp;
  }
  static void SetAge(SetAssocCache& cache, Addr line, uint32_t lane, uint8_t age) {
    cache.Ages(Base(cache, line))[lane] = age;
  }
};

namespace {

CacheLevelConfig SmallCache() { return {KiB(4), 4, 4}; }  // 16 sets x 4 ways
// The G1 L3's way count at a non-power-of-two set count: an odd way count
// leaves the set's tag words followed by way 0's fill-ready word, and five
// padding lanes in each half of the meta line.
CacheLevelConfig ElevenWayCache() { return {6 * 11 * kCacheLineSize, 11, 4}; }  // 6 sets

// A fill that looks the line up first, as the prefetch fill does.
EvictedLine Fill(SetAssocCache& cache, Addr line, Cycles now, bool dirty, bool prefetched,
                 Cycles ready_at = 0) {
  return cache.Insert(cache.Locate(line, now), line, now, dirty, prefetched, ready_at);
}

TEST(SetAssocCacheTest, MissThenHit) {
  SetAssocCache cache(SmallCache());
  EXPECT_FALSE(cache.Access(0, 0, false));
  Fill(cache, 0, 0, false, false);
  EXPECT_TRUE(cache.Access(0, 1, false));
}

TEST(SetAssocCacheTest, LruEvictionWithinSet) {
  SetAssocCache cache(SmallCache());
  const uint64_t stride = cache.sets() * kCacheLineSize;  // same set
  for (uint64_t i = 0; i < 4; ++i) {
    Fill(cache, i * stride, 0, false, false);
  }
  cache.Access(0, 10, false);  // refresh way 0
  const EvictedLine e = Fill(cache, 4 * stride, 11, false, false);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.line, 1 * stride);  // LRU victim, not the refreshed one
  EXPECT_TRUE(cache.Probe(0, 12));
}

TEST(SetAssocCacheTest, DirtyEvictionReported) {
  SetAssocCache cache(SmallCache());
  const uint64_t stride = cache.sets() * kCacheLineSize;
  Fill(cache, 0, 0, /*dirty=*/true, false);
  for (uint64_t i = 1; i <= 4; ++i) {
    const EvictedLine e = Fill(cache, i * stride, static_cast<Cycles>(i), false, false);
    if (e.valid && e.line == 0) {
      EXPECT_TRUE(e.dirty);
      return;
    }
  }
  FAIL() << "dirty line never evicted";
}

TEST(SetAssocCacheTest, InvalidateReturnsDirtiness) {
  SetAssocCache cache(SmallCache());
  Fill(cache, 0, 0, true, false);
  const auto r = cache.Invalidate(0);
  EXPECT_TRUE(r.was_present);
  EXPECT_TRUE(r.was_dirty);
  EXPECT_FALSE(cache.Probe(0, 1));
}

TEST(SetAssocCacheTest, WriteBackRetainKeepsLineClean) {
  SetAssocCache cache(SmallCache());
  Fill(cache, 0, 0, true, false);
  const auto r = cache.WriteBack(0, /*invalidate_at=*/1000, /*retain=*/true);
  EXPECT_TRUE(r.was_dirty);
  EXPECT_TRUE(cache.Probe(0, 100000));  // stays valid forever (G2 clwb)
  const auto r2 = cache.WriteBack(0, 2000, true);
  EXPECT_FALSE(r2.was_dirty);  // now clean
}

TEST(SetAssocCacheTest, TimedPendingInvalidation) {
  SetAssocCache cache(SmallCache());
  Fill(cache, 0, 0, true, false);
  cache.WriteBack(0, /*invalidate_at=*/1000, /*retain=*/false);
  EXPECT_TRUE(cache.Probe(0, 999));    // still visible inside the window
  EXPECT_FALSE(cache.Probe(0, 1000));  // gone at the deadline
}

TEST(SetAssocCacheTest, StoreCancelsPendingInvalidation) {
  SetAssocCache cache(SmallCache());
  Fill(cache, 0, 0, true, false);
  cache.WriteBack(0, 1000, false);
  EXPECT_TRUE(cache.Access(0, 500, /*mark_dirty=*/true));  // re-store
  EXPECT_TRUE(cache.Probe(0, 5000));                        // invalidation gone
}

TEST(SetAssocCacheTest, ApplyPendingInvalidateIsImmediate) {
  SetAssocCache cache(SmallCache());
  Fill(cache, 0, 0, true, false);
  cache.WriteBack(0, 100000, false);
  cache.ApplyPendingInvalidate(0);  // mfence ordering
  EXPECT_FALSE(cache.Probe(0, 1));
}

TEST(SetAssocCacheTest, PrefetchedFirstTouchFlag) {
  SetAssocCache cache(SmallCache());
  Fill(cache, 0, 0, false, /*prefetched=*/true);
  bool was_prefetched = false;
  EXPECT_TRUE(cache.Access(0, 1, false, &was_prefetched));
  EXPECT_TRUE(was_prefetched);
  EXPECT_TRUE(cache.Access(0, 2, false, &was_prefetched));
  EXPECT_FALSE(was_prefetched);  // cleared by the first touch
}

TEST(SetAssocCacheTest, FillReadyAtDelaysAvailability) {
  SetAssocCache cache(SmallCache());
  Fill(cache, 0, 0, false, true, /*ready_at=*/500);
  Cycles avail = 0;
  EXPECT_TRUE(cache.Access(0, 100, false, nullptr, &avail));
  EXPECT_EQ(avail, 500u);
  // Ready time is consumed by the first access.
  EXPECT_TRUE(cache.Access(0, 600, false, nullptr, &avail));
  EXPECT_EQ(avail, 600u);
}

// Applies one seeded random operation over two more lines per set than it has
// ways, so sets fill, evict, and carry pending invalidations and fill-ready
// times. Returns every observable result of the operation: its flags, ready
// time and evicted line.
std::array<uint64_t, 3> RandomCacheOp(SetAssocCache& cache, Rng& rng, Cycles now) {
  const uint64_t lines = cache.sets() * (cache.ways() + 2);
  const Addr addr = rng.NextBelow(lines) * kCacheLineSize + rng.NextBelow(64);
  const uint64_t op = rng.NextBelow(7);
  const bool flag_a = rng.NextBelow(2) == 0;
  const bool flag_b = rng.NextBelow(3) == 0;
  const Cycles later = flag_b ? 0 : now + rng.NextBelow(100);
  bool hit = false;
  bool was_prefetched = false;
  Cycles available_at = 0;
  EvictedLine evicted;
  SetAssocCache::InvalidateResult invalidated;
  switch (op) {
    case 0:
      hit = cache.Access(addr, now, flag_a, &was_prefetched, &available_at);
      break;
    case 1:
    case 2:
      evicted = Fill(cache, addr, now, flag_a, flag_b, later);
      break;
    case 3:
      invalidated = cache.WriteBack(addr, later, /*retain=*/flag_a);
      break;
    case 4:
      invalidated = cache.Invalidate(addr);
      break;
    case 5:
      hit = cache.Probe(addr, now);
      break;
    default:
      cache.ApplyPendingInvalidate(addr);
      break;
  }
  const uint64_t flags = hit | was_prefetched << 1 | evicted.valid << 2 | evicted.dirty << 3 |
                         invalidated.was_present << 4 | invalidated.was_dirty << 5;
  return {flags, available_at, evicted.line};
}

// The block array is never zeroed, so a cleared (or freshly built) cache must
// behave exactly like a fresh one whatever stale words its blocks hold. The
// lines filled before the clear are re-inserted after it in the reverse
// order, so each lands in a different way than its stale word.
TEST(SetAssocCacheTest, ClearedCacheBehavesLikeFreshCache) {
  for (const CacheLevelConfig& config : {SmallCache(), ElevenWayCache()}) {
    SCOPED_TRACE(::testing::Message() << config.ways << " ways");
    SetAssocCache cleared(config);
    const uint64_t lines = cleared.sets() * cleared.ways();
    for (uint64_t k = 0; k < lines; ++k) {
      Fill(cleared, k * kCacheLineSize, k, /*dirty=*/k % 3 == 0, /*prefetched=*/k % 5 == 0);
    }
    Rng fill(11);
    for (Cycles now = lines; now < lines + 2000; ++now) {
      (void)RandomCacheOp(cleared, fill, now);
    }
    cleared.Clear();

    SetAssocCache fresh(config);
    for (uint64_t k = lines; k-- > 0;) {
      const Cycles now = 3000 + lines - k;
      const EvictedLine want = Fill(fresh, k * kCacheLineSize, now, k % 2 == 0, false);
      const EvictedLine got = Fill(cleared, k * kCacheLineSize, now, k % 2 == 0, false);
      ASSERT_EQ(got.valid, want.valid) << "line " << k;
    }
    Rng a(29), b(29);
    for (Cycles now = 4000; now < 9000; ++now) {
      const std::array<uint64_t, 3> want = RandomCacheOp(fresh, a, now);
      ASSERT_EQ(RandomCacheOp(cleared, b, now), want) << "diverged at cycle " << now;
    }
  }
}

TEST(SetAssocCacheTest, ExpiredPendingWayIsReusedWithoutEviction) {
  SetAssocCache cache(SmallCache());
  const uint64_t stride = cache.sets() * kCacheLineSize;  // same set
  for (uint64_t i = 0; i < 4; ++i) {
    Fill(cache, i * stride, i, /*dirty=*/true, false);
  }
  // Line 2's clwb invalidation is due at 100; by 200 its way is the set's
  // only free way (every other way is valid, and line 0 is the LRU way).
  cache.WriteBack(2 * stride, /*invalidate_at=*/100, /*retain=*/false);
  const EvictedLine e = Fill(cache, 4 * stride, 200, false, false);
  EXPECT_FALSE(e.valid);  // dropped, not evicted: its write-back already left
  EXPECT_FALSE(cache.Probe(2 * stride, 201));
  EXPECT_TRUE(cache.Probe(4 * stride, 201));
  for (const uint64_t i : {0u, 1u, 3u}) {
    EXPECT_TRUE(cache.Probe(i * stride, 201)) << "line " << i;
  }
}

// Ways below a live line's way hold its fingerprint and its tag in stale
// words: one invalidated (valid bit clear), one as a never-written word may
// (valid bit set). Both carry the prefetched flag the live way lacks. Every
// lookup must find the live way and use its flags and LRU age.
TEST(SetAssocCacheTest, StaleLowerWaysNamingALiveLineAreIgnored) {
  SetAssocCache cache(ElevenWayCache());
  const uint64_t stride = cache.sets() * kCacheLineSize;  // same set
  const auto line = [&](uint64_t k) { return kCacheLineSize + k * stride; };
  for (uint64_t k = 0; k < 11; ++k) {
    Fill(cache, line(k), k, /*dirty=*/k == 4, false);  // line(k) in way k
  }
  // Refresh every line but line(4), which becomes the set's LRU line.
  for (uint64_t k = 0; k < 11; ++k) {
    if (k != 4) {
      cache.Access(line(k), 20 + k, false);
    }
  }
  const SetAssocCache::Located live = cache.Locate(line(4), 40);
  ASSERT_TRUE(live.live);
  cache.Invalidate(line(1));
  cache.Invalidate(line(2));
  using Peer = SetAssocCacheTestPeer;
  Peer::SetTagWord(cache, line(4), 1, line(4) | Peer::kPrefetched);
  Peer::SetTagWord(cache, line(4), 2, line(4) | Peer::kValid | Peer::kPrefetched);
  for (const uint32_t way : {1u, 2u}) {
    Peer::SetFingerprint(cache, line(4), way, Peer::Fingerprint(cache, line(4)));
  }
  cache.Probe(line(0), 40);  // the lookups below scan, not hit a memo

  EXPECT_EQ(cache.Locate(line(4), 41).way, live.way);
  cache.Probe(line(0), 41);
  bool was_prefetched = true;
  EXPECT_TRUE(cache.Access(line(4), 42, false, &was_prefetched));
  EXPECT_FALSE(was_prefetched);
  // The access made line(4) the most recent line: the fills after it take
  // the two free ways, then evict line(0), the oldest of the refreshed lines.
  EXPECT_FALSE(Fill(cache, line(11), 43, false, false).valid);
  EXPECT_FALSE(Fill(cache, line(12), 44, false, false).valid);
  const EvictedLine e = Fill(cache, line(13), 45, false, false);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.line, line(0));
  const auto r = cache.Invalidate(line(4));
  EXPECT_TRUE(r.was_present);
  EXPECT_TRUE(r.was_dirty);
}

// Line 0 sits in set 0, and its fingerprint is 0. Every padding lane of the
// 11-way meta line (11-15) is made to match it, with the oldest age, and the
// word a lane 11 tag would be is way 0's fill-ready time 1: line 0's tag with
// the valid bit. No lane at `ways` or above is a way, so line 0 must still
// miss and the victim must still be the LRU way.
TEST(SetAssocCacheTest, LineZeroMissesWhilePaddingLanesMatchIt) {
  using Peer = SetAssocCacheTestPeer;
  SetAssocCache cache(ElevenWayCache());
  const uint64_t stride = cache.sets() * kCacheLineSize;  // set 0
  for (uint64_t k = 1; k <= 11; ++k) {
    Fill(cache, k * stride, k, /*dirty=*/true, false, /*ready_at=*/k == 1 ? 1 : 0);
  }
  for (uint32_t lane = cache.ways(); lane < 16; ++lane) {
    Peer::SetFingerprint(cache, 0, lane, Peer::Fingerprint(cache, 0));
    Peer::SetAge(cache, 0, lane, static_cast<uint8_t>(cache.ways() - 1));
  }
  EXPECT_FALSE(cache.Probe(0, 20));
  EXPECT_EQ(cache.Locate(0, 20).way, SetAssocCache::kNoWay);
  EXPECT_FALSE(cache.Access(0, 20, /*mark_dirty=*/true));
  EXPECT_FALSE(cache.WriteBack(0, 30, /*retain=*/false).was_present);
  EXPECT_FALSE(cache.Invalidate(0).was_present);
  cache.ApplyPendingInvalidate(0);
  const EvictedLine e = cache.Insert(SetAssocCache::kAbsent, 0, 21, false, false);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.line, 1 * stride);  // way 0's line, the LRU one
  EXPECT_TRUE(e.dirty);
  EXPECT_TRUE(cache.Probe(0, 22));
}

// Lines of one set that share a fingerprint byte are told apart by their tag
// words: each hits only itself, an absent one misses, invalidating one leaves
// the others, and an eviction reports the LRU one's own line.
TEST(SetAssocCacheTest, SharedFingerprintsAreToldApartByTag) {
  using Peer = SetAssocCacheTestPeer;
  SetAssocCache cache(SmallCache());
  const uint64_t stride = cache.sets() * kCacheLineSize;  // set 0
  std::vector<Addr> same;  // set-0 lines sharing line 0's fingerprint
  for (uint64_t k = 0; same.size() < 4; ++k) {
    if (Peer::Fingerprint(cache, k * stride) == Peer::Fingerprint(cache, 0)) {
      same.push_back(k * stride);
    }
  }
  ASSERT_EQ(same[0], 0u);
  Fill(cache, same[0], 1, /*dirty=*/true, false);
  Fill(cache, same[1], 2, false, false);
  Fill(cache, same[2], 3, false, /*prefetched=*/true);
  EXPECT_FALSE(cache.Probe(same[3], 4));  // a miss despite three matching bytes
  EXPECT_FALSE(cache.Access(same[3], 4, false));
  bool was_prefetched = true;
  EXPECT_TRUE(cache.Access(same[1], 5, false, &was_prefetched));
  EXPECT_FALSE(was_prefetched);
  EXPECT_TRUE(cache.Access(same[2], 6, false, &was_prefetched));
  EXPECT_TRUE(was_prefetched);
  const SetAssocCache::InvalidateResult r = cache.Invalidate(same[1]);
  EXPECT_TRUE(r.was_present);
  EXPECT_FALSE(r.was_dirty);
  EXPECT_FALSE(cache.Probe(same[1], 7));
  EXPECT_TRUE(cache.Probe(same[0], 7));
  EXPECT_TRUE(cache.Probe(same[2], 7));
  // Refill the freed way, then one more: the set is full and same[0], the
  // least recently touched, leaves with its dirty bit.
  EXPECT_FALSE(Fill(cache, same[3], 8, false, false).valid);
  EXPECT_FALSE(Fill(cache, 1 * stride, 9, false, false).valid);
  const EvictedLine e = Fill(cache, same[1], 10, false, false);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.line, same[0]);
  EXPECT_TRUE(e.dirty);
  for (const Addr line : {same[1], same[2], same[3], 1 * stride}) {
    EXPECT_TRUE(cache.Probe(line, 11)) << "line " << line;
  }
  EXPECT_FALSE(cache.Probe(same[0], 11));
}

// A 20-way set's ages span both 16-lane halves of the meta line. Touches,
// invalidations, refills and a Clear() must keep the victim the least
// recently touched valid way in either half.
TEST(SetAssocCacheTest, TwentyWaySetEvictsInLruOrderAcrossBothHalves) {
  SetAssocCache cache({2 * 20 * kCacheLineSize, 20, 4});  // 2 sets
  ASSERT_EQ(cache.sets(), 2u);
  const auto line = [&](uint64_t k) { return k * cache.sets() * kCacheLineSize; };  // set 0
  const auto evicts = [&](uint64_t k, Cycles now) {
    const EvictedLine e = Fill(cache, line(k), now, false, false);
    return e.valid ? e.line : ~Addr{0};
  };
  for (uint64_t k = 0; k < 20; ++k) {
    Fill(cache, line(k), k, false, false);  // line(k) in way k
  }
  for (uint64_t k = 20; k-- > 0;) {
    EXPECT_TRUE(cache.Access(line(k), 40 - k, false));  // way 19 oldest, way 0 newest
  }
  EXPECT_EQ(evicts(20, 50), line(19));
  EXPECT_EQ(evicts(21, 51), line(18));
  cache.Invalidate(line(17));
  cache.Invalidate(line(3));
  EXPECT_EQ(evicts(22, 52), ~Addr{0});  // into way 3, the lowest free way
  EXPECT_EQ(evicts(23, 53), ~Addr{0});  // into way 17
  EXPECT_EQ(evicts(24, 54), line(16));
  EXPECT_TRUE(cache.Access(line(15), 55, false));
  EXPECT_EQ(evicts(25, 56), line(14));
  EXPECT_EQ(evicts(26, 57), line(13));

  // After a Clear() the stale ages of the old lines order nothing: the set
  // refills in reverse and evicts in that fill order.
  cache.Clear();
  for (uint64_t k = 20; k-- > 0;) {
    Fill(cache, line(k), 100 - k, false, false);  // line(19) in way 0
  }
  EXPECT_EQ(evicts(30, 110), line(19));
  EXPECT_TRUE(cache.Access(line(18), 111, false));
  EXPECT_EQ(evicts(31, 112), line(17));
  EXPECT_EQ(evicts(32, 113), line(16));
  cache.Invalidate(line(0));  // way 19, the newest fill
  EXPECT_EQ(evicts(33, 114), ~Addr{0});
  EXPECT_EQ(evicts(34, 115), line(15));
}

// ---------- Hierarchy + prefetchers ----------

struct HierFixture {
  CounterRegistry registry;
  PlatformConfig platform = G1Platform();
  std::unique_ptr<MemoryController> mc;
  std::unique_ptr<SetAssocCache> l3;
  std::unique_ptr<CacheHierarchy> hier;

  explicit HierFixture(bool g2 = false) {
    platform = g2 ? G2Platform() : G1Platform();
    mc = std::make_unique<MemoryController>(platform, &registry, 1);
    l3 = std::make_unique<SetAssocCache>(platform.cache.l3);
    hier = std::make_unique<CacheHierarchy>(platform.cache, l3.get(), mc.get(),
                                            registry.CreateScope("thread0"), 0);
    hier->prefetch_engine().SetEnabled(false, false, false);
  }

  // Machine-wide totals: the sum over the iMC, DIMM and thread scopes.
  Counters counters() const { return registry.Aggregate(); }

  // Unordered, prefetch-training demand accesses, each into a fresh record.
  AccessRecord Load(Addr addr, Cycles now) {
    AccessRecord r;
    hier->Load(addr, now, /*ordered=*/false, /*train=*/true, &r);
    return r;
  }
  AccessRecord Store(Addr addr, Cycles now) {
    AccessRecord r;
    hier->Store(addr, now, &r);
    return r;
  }
};

TEST(HierarchyTest, MissFillsAllLevels) {
  HierFixture f;
  const AccessRecord r = f.Load(0, 1000);
  EXPECT_EQ(r.hit_level, 0);
  EXPECT_TRUE(f.hier->l1().Probe(0, 2000));
  EXPECT_TRUE(f.hier->l2().Probe(0, 2000));
  EXPECT_TRUE(f.l3->Probe(0, 2000));
  const AccessRecord r2 = f.Load(0, 3000);
  EXPECT_EQ(r2.hit_level, 1);
  EXPECT_EQ(r2.complete_at, 3000 + f.platform.cache.l1.hit_latency);
  const Counters n = f.counters();
  EXPECT_EQ(n.cache_misses, 1u);
  EXPECT_EQ(n.l1_hits, 1u);
  EXPECT_EQ(n.l2_hits + n.l3_hits, 0u);
}

// A hit at L2 or L3 completes after that level's latency, fills every level
// above it, counts one hit at its own level, and leaves only the L1 copy
// dirty when the access is a store.
TEST(HierarchyTest, HitBelowL1FillsTheLevelsAbove) {
  for (const int level : {2, 3}) {
    for (const bool store : {false, true}) {
      SCOPED_TRACE(testing::Message() << "L" << level << (store ? " store" : " load"));
      HierFixture f;
      SetAssocCache& l1 = f.hier->l1();
      SetAssocCache& l2 = f.hier->l2();
      f.Load(0, 1000);  // miss: line 0 clean in every level
      // Clean loads aliasing line 0's set in the level above the hit level
      // push it out of that level; the L2 set span is a multiple of L1's, so
      // the L3 case empties both. The lower levels spread them over sets.
      const SetAssocCache& above = level == 2 ? l1 : l2;
      const uint64_t stride = above.sets() * kCacheLineSize;
      for (uint32_t i = 1; i <= above.ways(); ++i) {
        f.Load(i * stride, 1000 + 10 * i);
      }
      ASSERT_FALSE(l1.Probe(0, 2000));
      ASSERT_EQ(l2.Probe(0, 2000), level == 2);
      ASSERT_TRUE(f.l3->Probe(0, 2000));

      const AccessRecord r = store ? f.Store(0, 5000) : f.Load(0, 5000);
      EXPECT_EQ(r.hit_level, level);
      const CacheLevelConfig& hit = level == 2 ? f.platform.cache.l2 : f.platform.cache.l3;
      EXPECT_EQ(r.complete_at, 5000 + hit.hit_latency);
      const Counters n = f.counters();
      EXPECT_EQ(n.l1_hits, 0u);
      EXPECT_EQ(n.l2_hits, level == 2 ? 1u : 0u);
      EXPECT_EQ(n.l3_hits, level == 3 ? 1u : 0u);
      EXPECT_EQ(n.cache_misses, 1u + above.ways());
      EXPECT_TRUE(l1.Probe(0, 6000));
      EXPECT_TRUE(l2.Probe(0, 6000));
      // Invalidate reports each level's dirty bit.
      EXPECT_EQ(l1.Invalidate(0).was_dirty, store);
      EXPECT_FALSE(l2.Invalidate(0).was_dirty);
      EXPECT_FALSE(f.l3->Invalidate(0).was_dirty);
    }
  }
}

TEST(HierarchyTest, DirtyL1VictimMarksPresentL2CopyDirty) {
  HierFixture f;
  f.Store(0, 1000);  // miss: clean in L3 and L2, dirty in L1
  SetAssocCache& l1 = f.hier->l1();
  const uint64_t stride = l1.sets() * kCacheLineSize;
  for (uint32_t i = 1; i <= l1.ways(); ++i) {
    f.Load(i * stride, 1000 + 10 * i);
  }
  EXPECT_FALSE(l1.Probe(0, 2000));
  const SetAssocCache::InvalidateResult l2 = f.hier->l2().Invalidate(0);
  EXPECT_TRUE(l2.was_present);
  EXPECT_TRUE(l2.was_dirty);
  EXPECT_FALSE(f.l3->Invalidate(0).was_dirty);
  EXPECT_EQ(f.counters().imc_write_bytes, 0u);  // the dirty data stayed cached
}

TEST(HierarchyTest, StoreMakesDirtyAndClwbWritesBack) {
  HierFixture f;
  f.Store(0, 1000);
  const FlushResult flush = f.hier->Flush(0, 2000, /*invalidate=*/false);
  EXPECT_TRUE(flush.wrote);
  EXPECT_GT(flush.accepted_at, 2000u);
  EXPECT_EQ(f.counters().imc_write_bytes, kCacheLineSize);
  // Second clwb: line now clean, nothing written.
  const FlushResult again = f.hier->Flush(0, 3000, /*invalidate=*/false);
  EXPECT_FALSE(again.wrote);
}

TEST(HierarchyTest, CleanFlushSendsNothing) {
  HierFixture f;
  f.Load(0, 1000);
  EXPECT_FALSE(f.hier->Flush(0, 2000, /*invalidate=*/true).wrote);
  EXPECT_EQ(f.counters().imc_write_bytes, 0u);
}

TEST(HierarchyTest, G1ClwbEventuallyInvalidates) {
  HierFixture f;
  f.Store(0, 1000);
  f.hier->Flush(0, 2000, /*invalidate=*/false);
  EXPECT_TRUE(f.hier->ProbeAny(0, 2100));  // within the dispatch window
  EXPECT_FALSE(f.hier->ProbeAny(0, 2000 + f.platform.cache.clwb_dispatch_delay));
}

TEST(HierarchyTest, G2ClwbRetains) {
  HierFixture f(/*g2=*/true);
  f.Store(0, 1000);
  f.hier->Flush(0, 2000, /*invalidate=*/false);
  EXPECT_TRUE(f.hier->ProbeAny(0, 1000000));
}

TEST(HierarchyTest, DirtyL3EvictionEntersPersistPath) {
  HierFixture f;
  // Dirty a line, then force it out of all levels by filling its sets.
  f.Store(0, 1000);
  const uint64_t l1_stride = f.hier->l1().sets() * kCacheLineSize;
  // Evict from L1/L2 by conflict; lines land dirty in lower levels and the
  // L3 eviction finally writes to the iMC. The stride aliases the same set at
  // every level, so enough fills push the dirty line all the way out.
  const uint64_t l3_stride = f.l3->sets() * kCacheLineSize;
  (void)l1_stride;
  for (uint64_t i = 1; i <= 3 * (f.platform.cache.l3.ways + f.platform.cache.l2.ways); ++i) {
    f.Load(i * l3_stride, 1000 + i * 10);
  }
  EXPECT_GE(f.counters().imc_write_bytes, kCacheLineSize);
}

TEST(PrefetcherTest, AdjacentTriggersOnL2Miss) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(true, false, false);
  f.Load(0, 1000);
  EXPECT_EQ(f.counters().prefetch_requests, 1u);
  EXPECT_TRUE(f.hier->l2().Probe(kCacheLineSize, 2000));
  EXPECT_FALSE(f.hier->l1().Probe(kCacheLineSize, 2000));  // L2 prefetcher
}

TEST(PrefetcherTest, AdjacentTriggersOnPrefetchedFirstTouch) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(true, false, false);
  f.Load(0, 1000);               // prefetches line 1
  f.Load(kCacheLineSize, 2000);  // first touch -> prefetches line 2
  EXPECT_EQ(f.counters().prefetch_requests, 2u);
  EXPECT_TRUE(f.hier->l2().Probe(2 * kCacheLineSize, 3000));
}

TEST(PrefetcherTest, DcuTriggersOnAscendingPair) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(false, true, false);
  f.Load(0, 1000);
  EXPECT_EQ(f.counters().prefetch_requests, 0u);
  f.Load(kCacheLineSize, 2000);  // ascending pair
  EXPECT_EQ(f.counters().prefetch_requests, 1u);
  EXPECT_TRUE(f.hier->l1().Probe(2 * kCacheLineSize, 3000));  // DCU fills L1
}

TEST(PrefetcherTest, DcuIgnoresNonAdjacent) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(false, true, false);
  f.Load(0, 1000);
  f.Load(10 * kCacheLineSize, 2000);
  EXPECT_EQ(f.counters().prefetch_requests, 0u);
}

TEST(PrefetcherTest, StreamLocksOnConstantStride) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(false, false, true);
  // Long 256 B-stride run: the stochastic lock arbitration must engage well
  // within 64 in-stride accesses (P(miss) ~ 0.6^20).
  for (uint64_t i = 0; i < 64; ++i) {
    f.Load(i * kXPLineSize, 1000 + i * 100);
  }
  EXPECT_GT(f.counters().prefetch_requests, 0u);
}

TEST(PrefetcherTest, StreamIgnoresRandomAccesses) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(false, false, true);
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    f.Load(rng.NextBelow(1u << 20) * kCacheLineSize * 7, 1000 + i * 100);
  }
  EXPECT_EQ(f.counters().prefetch_requests, 0u);
}

TEST(PrefetcherTest, PrefetchFillsDoNotCascade) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(true, true, true);
  f.Load(0, 1000);
  // Bounded prefetching from a single demand access.
  EXPECT_LE(f.counters().prefetch_requests, 3u);
}

TEST(PrefetcherTest, PrefetchedLineArrivesLater) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(true, false, false);
  f.Load(0, 1000);  // issues prefetch of line 1 at ~1000
  // An immediate demand hit on the prefetched line waits for its fill.
  const AccessRecord r = f.Load(kCacheLineSize, 1001);
  EXPECT_EQ(r.hit_level, 2);
  EXPECT_GT(r.complete_at, 1001 + f.platform.cache.l2.hit_latency);
}

}  // namespace
}  // namespace pmemsim
