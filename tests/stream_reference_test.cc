// Differential test of PrefetchEngine's L2 stream table against a plain
// reference: 16 entries, each with a valid flag and a 64-bit LRU tick, found
// by a linear scan, with the least recent (or a free) entry replaced on a
// miss and its own generator for lock arbitration. Seeded line streams drive
// both in lockstep; after every training call the tracked pages, each
// entry's training state, the LRU order and the prefetch fills must agree.
// When the two disagree, the reference is the specification to argue from.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/cache/cache.h"
#include "src/cache/hierarchy.h"
#include "src/cache/prefetcher.h"
#include "src/common/config.h"
#include "src/common/random.h"
#include "src/imc/memory_controller.h"
#include "src/trace/registry.h"

namespace pmemsim {

// One tracked page's training state.
struct TrackedStream {
  Addr page = 0;
  Addr last_line = 0;
  int64_t stride = 0;
  int steps = 0;
  bool locked = false;

  bool operator==(const TrackedStream&) const = default;
};

void PrintTo(const TrackedStream& s, std::ostream* os) {
  *os << "{page " << s.page << ", last_line " << s.last_line << ", stride " << s.stride
      << ", steps " << s.steps << ", locked " << s.locked << "}";
}

struct PrefetchEngineTestPeer {
  // The valid entries, most recently trained first.
  static std::vector<TrackedStream> Streams(const PrefetchEngine& engine) {
    std::vector<std::pair<uint8_t, TrackedStream>> aged;
    for (uint32_t i = 0; i < PrefetchEngine::kStreams; ++i) {
      if ((engine.stream_valid_ >> i & 1) != 0) {
        const auto& e = engine.streams_[i];
        aged.push_back(
            {engine.stream_ages_[i], {e.page, e.last_line, e.stride, e.steps, e.locked}});
      }
    }
    std::sort(aged.begin(), aged.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<TrackedStream> out;
    for (const auto& [age, s] : aged) {
      out.push_back(s);
    }
    return out;
  }
  // True iff the ages of all 16 entries are a permutation of 0..15.
  static bool AgesArePermutation(const PrefetchEngine& engine) {
    std::array<uint8_t, PrefetchEngine::kStreams> ages = engine.stream_ages_;
    std::sort(ages.begin(), ages.end());
    for (uint32_t i = 0; i < ages.size(); ++i) {
      if (ages[i] != i) {
        return false;
      }
    }
    return true;
  }
};

namespace {

constexpr double kLockProbability = 0.4;  // PrefetchEngine's lock arbitration odds

// The stream table as a linear scan over 16 entries with 64-bit LRU ticks.
// Its fills go to `sink`, a second hierarchy whose only traffic they are.
class ReferenceStreamTable {
 public:
  ReferenceStreamTable(uint32_t degree, uint64_t seed, CacheHierarchy* sink)
      : degree_(degree), rng_(seed), sink_(sink) {}

  void Train(Addr line, Cycles now) {
    const Addr page = PageBase(line);
    Entry* entry = nullptr;
    for (Entry& e : entries_) {
      if (e.valid && e.stream.page == page) {
        entry = &e;
        break;
      }
    }
    if (entry == nullptr) {
      Entry* victim = nullptr;
      for (Entry& e : entries_) {
        if (!e.valid) {
          victim = &e;
          break;
        }
        if (victim == nullptr || e.tick < victim->tick) {
          victim = &e;
        }
      }
      *victim = {{page, line, 0, 0, false}, ++tick_, true};
      return;
    }
    entry->tick = ++tick_;
    TrackedStream& s = entry->stream;
    const int64_t stride = static_cast<int64_t>(line) - static_cast<int64_t>(s.last_line);
    s.last_line = line;
    if (stride == 0) {
      return;
    }
    if (stride != s.stride || std::llabs(stride) > 2048) {
      s.stride = stride;
      s.steps = 1;
      s.locked = false;
      return;
    }
    ++s.steps;
    if (!s.locked && s.steps >= 3) {
      if (rng_.NextDouble() < kLockProbability) {
        s.locked = true;
      } else {
        s.steps = 0;
        return;
      }
    }
    if (s.locked) {
      for (uint32_t d = 1; d <= degree_; ++d) {
        const int64_t target = static_cast<int64_t>(line) + s.stride * static_cast<int64_t>(d);
        if (target >= 0) {
          sink_->PrefetchFill(static_cast<Addr>(target), now, /*into_l1=*/false);
        }
      }
    }
  }

  void Reset() {
    entries_ = {};
    tick_ = 0;
  }

  // The valid entries, most recently trained first.
  std::vector<TrackedStream> Streams() const {
    std::vector<Entry> valid;
    for (const Entry& e : entries_) {
      if (e.valid) {
        valid.push_back(e);
      }
    }
    std::sort(valid.begin(), valid.end(),
              [](const Entry& a, const Entry& b) { return a.tick > b.tick; });
    std::vector<TrackedStream> out;
    for (const Entry& e : valid) {
      out.push_back(e.stream);
    }
    return out;
  }

 private:
  struct Entry {
    TrackedStream stream;
    uint64_t tick = 0;
    bool valid = false;
  };

  uint32_t degree_;
  Rng rng_;
  CacheHierarchy* sink_;
  std::array<Entry, 16> entries_{};
  uint64_t tick_ = 0;
};

// A G1 thread hierarchy of its own: caches, iMC and counters.
struct Machine {
  CounterRegistry registry;
  PlatformConfig platform = G1Platform();
  std::unique_ptr<MemoryController> mc;
  std::unique_ptr<SetAssocCache> l3;
  std::unique_ptr<CacheHierarchy> hier;
  Counters* counters;

  explicit Machine(uint64_t seed) {
    mc = std::make_unique<MemoryController>(platform, &registry, 1);
    l3 = std::make_unique<SetAssocCache>(platform.cache.l3);
    counters = registry.CreateScope("thread0");
    hier = std::make_unique<CacheHierarchy>(platform.cache, l3.get(), mc.get(), counters,
                                            /*node=*/0, seed);
    hier->prefetch_engine().SetEnabled(/*adjacent=*/false, /*dcu=*/false, /*stream=*/true);
  }
};

// Page pool size and seed.
class StreamReference : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(StreamReference, MatchesTickLruScan) {
  const auto [pool, seed] = GetParam();
  Machine engine_side(seed);
  Machine reference_side(seed);
  PrefetchEngine& engine = engine_side.hier->prefetch_engine();
  ReferenceStreamTable ref(engine_side.platform.cache.stream_prefetch_degree, seed,
                           reference_side.hier.get());
  Rng rng(seed * 7919 + pool);

  // The pool's pages come in groups of four that share a fingerprint (page
  // numbers 256 apart), so a lookup often has several candidates.
  const Addr first = 1 + rng.NextBelow(1 << 20);
  std::vector<Addr> pages;
  std::vector<int64_t> strides;
  std::vector<Addr> offsets;
  constexpr int64_t kStrides[] = {64, 64, 128, 192, -64, -128, 256, 0, 2112, -2560};
  auto draw_stride = [&] { return kStrides[rng.NextBelow(std::size(kStrides))]; };
  for (uint32_t i = 0; i < pool; ++i) {
    pages.push_back((first + i / 4 + 256 * (i % 4)) * kPageSize);
    strides.push_back(draw_stride());
    offsets.push_back(rng.NextBelow(kPageSize / kCacheLineSize) * kCacheLineSize);
  }

  constexpr int kSteps = 20000;
  uint32_t current = 0;
  uint64_t locks = 0;
  Cycles now = 1;
  for (int i = 0; i < kSteps; ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    if (i == kSteps / 2) {
      engine.Reset();
      ref.Reset();
    }
    // Runs on one page long enough to lock, then a jump to another.
    if (rng.NextBelow(5) == 0) {
      current = static_cast<uint32_t>(rng.NextBelow(pool));
    }
    if (rng.NextBelow(24) == 0) {
      strides[current] = draw_stride();
    }
    const Addr line = pages[current] + offsets[current];
    offsets[current] =
        static_cast<Addr>(static_cast<int64_t>(offsets[current]) + strides[current]) %
        kPageSize;
    now += 1 + rng.NextBelow(40);
    // hit_level 1 (an L1 hit) does not train; the other levels do.
    const uint8_t hit_level = static_cast<uint8_t>(rng.NextBelow(4));
    engine.OnDemandAccess({line, now, hit_level, false});
    if (hit_level != 1) {
      ref.Train(line, now);
    }

    const std::vector<TrackedStream> want = ref.Streams();
    ASSERT_EQ(PrefetchEngineTestPeer::Streams(engine), want);
    ASSERT_TRUE(PrefetchEngineTestPeer::AgesArePermutation(engine));
    ASSERT_EQ(engine_side.counters->prefetch_requests, reference_side.counters->prefetch_requests);
    locks += std::count_if(want.begin(), want.end(), [](const auto& s) { return s.locked; });
  }
  // The streams locked and prefetched, and the table filled and evicted.
  EXPECT_GT(locks, 0u);
  EXPECT_GT(engine_side.counters->prefetch_requests, 100u);
}

INSTANTIATE_TEST_SUITE_P(PoolsAndSeeds, StreamReference,
                         ::testing::Combine(::testing::Values(8u, 16u, 17u, 48u),
                                            ::testing::Values(uint64_t{1}, uint64_t{2},
                                                              uint64_t{3})));

}  // namespace
}  // namespace pmemsim
