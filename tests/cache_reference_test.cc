// Differential test of SetAssocCache against a deliberately naive reference:
// one std::list per set in LRU order, each entry carrying its way index, its
// dirty and prefetched flags, its fill-ready time and its scheduled
// invalidation. Seeded random op streams drive both in lockstep; after every
// op the observable results must agree. When the two disagree, the reference
// is the specification to argue from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <tuple>
#include <vector>

#include "src/cache/cache.h"
#include "src/common/config.h"
#include "src/common/random.h"

namespace pmemsim {
namespace {

class ReferenceCache {
 public:
  ReferenceCache(size_t sets, uint32_t ways) : ways_(ways), sets_(sets) {}

  bool Access(Addr addr, Cycles now, bool mark_dirty, bool* was_prefetched,
              Cycles* available_at) {
    Set& set = SetOf(addr);
    auto it = Find(set, addr);
    if (it != set.end() && Due(*it, now)) {
      set.erase(it);  // the scheduled invalidation has taken effect
      it = set.end();
    }
    if (it == set.end()) {
      *was_prefetched = false;
      return false;
    }
    Line line = *it;
    set.erase(it);
    if (mark_dirty) {
      line.dirty = true;
      line.pending = false;
    }
    *was_prefetched = line.prefetched;
    *available_at = std::max(line.ready_at, now);
    line.prefetched = false;
    line.ready_at = 0;
    set.push_front(line);
    return true;
  }

  bool Probe(Addr addr, Cycles now) {
    Set& set = SetOf(addr);
    const auto it = Find(set, addr);
    return it != set.end() && !Due(*it, now);
  }

  EvictedLine Insert(Addr addr, Cycles now, bool dirty, bool prefetched, Cycles ready_at) {
    Set& set = SetOf(addr);
    if (auto it = Find(set, addr); it != set.end()) {
      Line line = *it;  // present, even if due: refreshed in place
      set.erase(it);
      line.dirty |= dirty;
      if (!prefetched) {
        line.prefetched = false;
      }
      line.pending = false;
      set.push_front(line);
      return {};
    }
    // The lowest way that is empty or holds a due line, else the LRU line.
    EvictedLine evicted;
    uint32_t way = 0;
    for (; way < ways_; ++way) {
      const auto holder = std::find_if(set.begin(), set.end(),
                                       [&](const Line& l) { return l.way == way; });
      if (holder == set.end()) {
        break;
      }
      if (Due(*holder, now)) {
        set.erase(holder);  // dropped, not evicted
        break;
      }
    }
    if (way == ways_) {
      evicted = {set.back().addr, true, set.back().dirty};
      way = set.back().way;
      set.pop_back();
    }
    set.push_front({CacheLineBase(addr), way, dirty, prefetched, ready_at, false, 0});
    return evicted;
  }

  SetAssocCache::InvalidateResult Invalidate(Addr addr) {
    Set& set = SetOf(addr);
    const auto it = Find(set, addr);
    if (it == set.end()) {
      return {};
    }
    const SetAssocCache::InvalidateResult r{true, it->dirty};
    set.erase(it);
    return r;
  }

  SetAssocCache::InvalidateResult WriteBack(Addr addr, Cycles invalidate_at, bool retain) {
    Set& set = SetOf(addr);
    const auto it = Find(set, addr);
    if (it == set.end()) {
      return {};
    }
    const SetAssocCache::InvalidateResult r{true, it->dirty};
    it->dirty = false;
    if (!retain) {
      it->pending = invalidate_at != 0;
      it->pending_at = invalidate_at;
    }
    return r;
  }

  void ApplyPendingInvalidate(Addr addr) {
    Set& set = SetOf(addr);
    const auto it = Find(set, addr);
    if (it != set.end() && it->pending) {
      set.erase(it);
    }
  }

  void Clear() { sets_.assign(sets_.size(), {}); }

 private:
  struct Line {
    Addr addr;
    uint32_t way;
    bool dirty;
    bool prefetched;
    Cycles ready_at;  // 0: no fill in flight
    bool pending;     // a clwb invalidation is scheduled at pending_at
    Cycles pending_at;
  };
  using Set = std::list<Line>;  // most recently used first

  static bool Due(const Line& line, Cycles now) { return line.pending && now >= line.pending_at; }

  Set& SetOf(Addr addr) { return sets_[(addr / kCacheLineSize) % sets_.size()]; }
  static Set::iterator Find(Set& set, Addr addr) {
    return std::find_if(set.begin(), set.end(),
                        [&](const Line& l) { return l.addr == CacheLineBase(addr); });
  }

  uint32_t ways_;
  std::vector<Set> sets_;
};

// The two ways a fill reaches a level: right after a demand miss at that
// level (the line is known absent), or unconditionally (the prefetch fill,
// which may find the line present, its invalidation due or not).
EvictedLine FillAfterMiss(SetAssocCache& cache, Addr addr, Cycles now, bool dirty) {
  return cache.Insert(SetAssocCache::kAbsent, addr, now, dirty, /*prefetched=*/false);
}
EvictedLine Fill(SetAssocCache& cache, Addr addr, Cycles now, bool dirty, bool prefetched,
                 Cycles ready_at) {
  return cache.Insert(cache.Locate(addr, now), addr, now, dirty, prefetched, ready_at);
}

// The G1 and G2 L1/L2/L3 way counts at a few sets each. The L3s keep their
// non-power-of-two set counts, which take the multiply-shift index path.
struct Geometry {
  const char* name;
  uint32_t ways;
  size_t sets;
};
constexpr Geometry kGeometries[] = {
    {"G1L1", 8, 8},
    {"G2L1", 12, 4},
    {"G1L2", 16, 8},
    {"G2L2", 20, 4},
    {"G1L3", 11, 10},
    {"G2L3", 12, 6},
};

class CacheReference : public ::testing::TestWithParam<std::tuple<Geometry, uint64_t>> {};

TEST_P(CacheReference, MatchesNaiveLruModel) {
  const auto [geometry, seed] = GetParam();
  SetAssocCache cache({geometry.sets * geometry.ways * kCacheLineSize, geometry.ways, 4});
  ASSERT_EQ(cache.sets(), geometry.sets);
  ReferenceCache ref(geometry.sets, geometry.ways);
  Rng rng(seed);
  // Twice as many lines as the cache holds: a mix of hits, misses and
  // evictions in every set.
  const uint64_t lines = 2 * geometry.sets * geometry.ways;
  Cycles now = 1;
  Addr addr = 0;
  for (int i = 0; i < 20000; ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    // Half the ops stay on the previous line, in runs like a demand stream
    // working through one line.
    if (rng.NextBelow(2) == 0) {
      addr = rng.NextBelow(lines) * kCacheLineSize;
    }
    addr = CacheLineBase(addr) + rng.NextBelow(kCacheLineSize);
    now += rng.NextBelow(16) == 0 ? 40 : rng.NextBelow(4);
    const Cycles later = now + 1 + rng.NextBelow(40);
    const uint64_t op = rng.NextBelow(100);
    if (op < 40) {
      const bool store = op >= 30;
      bool got_prefetched = true, want_prefetched = true;
      Cycles got_avail = ~Cycles{0}, want_avail = ~Cycles{0};
      const bool hit = cache.Access(addr, now, store, &got_prefetched, &got_avail);
      ASSERT_EQ(hit, ref.Access(addr, now, store, &want_prefetched, &want_avail));
      ASSERT_EQ(got_prefetched, want_prefetched);
      ASSERT_EQ(got_avail, want_avail);
      if (!hit && op % 2 == 0) {
        const EvictedLine got = FillAfterMiss(cache, addr, now, store);
        const EvictedLine want = ref.Insert(addr, now, store, false, 0);
        ASSERT_EQ(got.valid, want.valid);
        ASSERT_EQ(got.line, want.line);
        ASSERT_EQ(got.dirty, want.dirty);
      }
    } else if (op < 50) {
      ASSERT_EQ(cache.Probe(addr, now), ref.Probe(addr, now));
    } else if (op < 70) {
      const bool dirty = rng.NextBelow(4) == 0;
      const bool prefetched = rng.NextBelow(2) == 0;
      const Cycles ready_at = rng.NextBelow(2) == 0 ? 0 : later;
      const EvictedLine got = Fill(cache, addr, now, dirty, prefetched, ready_at);
      const EvictedLine want = ref.Insert(addr, now, dirty, prefetched, ready_at);
      ASSERT_EQ(got.valid, want.valid);
      ASSERT_EQ(got.line, want.line);
      ASSERT_EQ(got.dirty, want.dirty);
    } else if (op < 76) {
      const auto got = cache.Invalidate(addr);
      const auto want = ref.Invalidate(addr);
      ASSERT_EQ(got.was_present, want.was_present);
      ASSERT_EQ(got.was_dirty, want.was_dirty);
    } else if (op < 92) {
      const Cycles invalidate_at = rng.NextBelow(4) == 0 ? 0 : later;
      const bool retain = rng.NextBelow(3) == 0;
      const auto got = cache.WriteBack(addr, invalidate_at, retain);
      const auto want = ref.WriteBack(addr, invalidate_at, retain);
      ASSERT_EQ(got.was_present, want.was_present);
      ASSERT_EQ(got.was_dirty, want.was_dirty);
    } else if (op < 99 || rng.NextBelow(20) != 0) {
      cache.ApplyPendingInvalidate(addr);
      ref.ApplyPendingInvalidate(addr);
    } else {
      cache.Clear();
      ref.Clear();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesAndSeeds, CacheReference,
    ::testing::Combine(::testing::ValuesIn(kGeometries), ::testing::Values(11u, 22u, 33u)),
    [](const ::testing::TestParamInfo<CacheReference::ParamType>& p) {
      return std::string(std::get<0>(p.param).name) + "_seed" +
             std::to_string(std::get<1>(p.param));
    });

}  // namespace
}  // namespace pmemsim
