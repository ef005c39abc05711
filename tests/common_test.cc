// Tests for src/common: types/address math, RNG, stats, backing store, config.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/backing_store.h"
#include "src/common/config.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace pmemsim {
namespace {

TEST(TypesTest, AddressMath) {
  EXPECT_EQ(CacheLineBase(0), 0u);
  EXPECT_EQ(CacheLineBase(63), 0u);
  EXPECT_EQ(CacheLineBase(64), 64u);
  EXPECT_EQ(XPLineBase(255), 0u);
  EXPECT_EQ(XPLineBase(256), 256u);
  EXPECT_EQ(LineIndexInXPLine(0), 0u);
  EXPECT_EQ(LineIndexInXPLine(64), 1u);
  EXPECT_EQ(LineIndexInXPLine(128), 2u);
  EXPECT_EQ(LineIndexInXPLine(192 + 63), 3u);
  EXPECT_EQ(PageBase(4097), 4096u);
  EXPECT_TRUE(IsXPLineAligned(512));
  EXPECT_FALSE(IsXPLineAligned(576));
  EXPECT_EQ(AlignUp(1, 256), 256u);
  EXPECT_EQ(AlignUp(256, 256), 256u);
  EXPECT_EQ(KiB(16), 16384u);
  EXPECT_EQ(MiB(1), 1048576u);
}

TEST(TypesTest, XPLineHoldsFourCacheLines) {
  EXPECT_EQ(kXPLineSize / kCacheLineSize, kLinesPerXPLine);
  EXPECT_EQ(kLinesPerXPLine, 4u);
}

TEST(RandomTest, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    differs |= a2.Next() != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(RandomTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RandomTest, NextBelowCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, NextDoubleUnit) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RandomTest, Mix64Distinct) {
  std::set<uint64_t> out;
  for (uint64_t i = 0; i < 1000; ++i) {
    out.insert(Mix64(i));
  }
  EXPECT_EQ(out.size(), 1000u);
}

TEST(StatsTest, HistogramPercentiles) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 1000u);
  // Within one sub-bucket: 16 wide around 500, 32 around 990.
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.50)), 500.0, 16.0);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.99)), 990.0, 32.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-6);
}

TEST(StatsTest, HistogramMerge) {
  Histogram a, b;
  for (uint64_t i = 0; i < 100; ++i) {
    a.Add(10);
    b.Add(1000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.Min(), 10u);
  EXPECT_EQ(a.Max(), 1000u);
}

TEST(StatsTest, HistogramLargeValues) {
  Histogram h;
  h.Add(1ull << 40);
  h.Add(1);
  EXPECT_EQ(h.Max(), 1ull << 40);
  EXPECT_EQ(h.Quantile(1.0), 1ull << 40);  // the top rank is the exact maximum
}

TEST(StatsTest, HistogramSmallValuesLandInExactBuckets) {
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(15), 15);
  // The first octave follows on directly: no bucket is skipped.
  EXPECT_EQ(Histogram::BucketFor(16), 16);
  EXPECT_EQ(Histogram::BucketFor(31), 31);
  EXPECT_EQ(Histogram::BucketFor(32), 32);
  // Interior ranks (not the tracked min/max) read back exactly too.
  Histogram h;
  for (uint64_t v : {0, 0, 0, 15, 15, 15}) {
    h.Add(v);
  }
  EXPECT_EQ(h.Quantile(0.4), 0u);
  EXPECT_EQ(h.Quantile(0.6), 15u);
}

TEST(StatsTest, HistogramHugeValuesClampIntoLastBucket) {
  const int last = Histogram::BucketFor(~0ull);
  EXPECT_EQ(last, 623);  // 39 octaves of 16 sub-buckets
  EXPECT_EQ(Histogram::BucketFor(1ull << 42), last);
  EXPECT_EQ(Histogram::BucketFor((1ull << 42) + 12345), last);
  EXPECT_EQ(Histogram::BucketFor(1ull << 50), last);
  EXPECT_EQ(Histogram::BucketFor(1ull << 63), last);
  // The octave below still has its own sub-buckets.
  EXPECT_LT(Histogram::BucketFor(1ull << 41), last);
  Histogram h;
  h.Add(1ull << 42);
  h.Add(1ull << 60);
  h.Add(~0ull);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.Min(), 1ull << 42);
  EXPECT_EQ(h.Max(), ~0ull);
  EXPECT_EQ(h.Quantile(0.5), 1ull << 42);  // clamped to [min, max]
}

TEST(StatsTest, HistogramMergeWithEmptyChangesNothing) {
  Histogram h;
  for (uint64_t v : {3, 700, 41, 90000}) {
    h.Add(v);
  }
  const Histogram empty;
  h.Merge(empty);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.Min(), 3u);
  EXPECT_EQ(h.Max(), 90000u);
  EXPECT_EQ(h.mean(), (3.0 + 700.0 + 41.0 + 90000.0) / 4.0);
  // Merging into an empty histogram copies it.
  Histogram into;
  into.Merge(h);
  EXPECT_EQ(into.count(), 4u);
  EXPECT_EQ(into.Min(), 3u);
  EXPECT_EQ(into.Max(), 90000u);
  EXPECT_EQ(into.mean(), h.mean());
  EXPECT_EQ(into.ToJson(), h.ToJson());
}

TEST(StatsTest, HistogramMeanIsExactIntegerSumOverCount) {
  // Values below 2^32 keep every partial sum of 10^6 of them below 2^53, where
  // the double sum is exact.
  Histogram h;
  Rng rng(2024);
  uint64_t sum = 0;
  constexpr uint64_t kAdds = 1000000;
  for (uint64_t i = 0; i < kAdds; ++i) {
    const uint64_t v = rng.NextBelow(1ull << (1 + i % 32));
    h.Add(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), kAdds);
  EXPECT_EQ(h.mean(), static_cast<double>(sum) / static_cast<double>(kAdds));
}

// Reference model for Quantile: the exact rank-ceil(q*n) order statistic.
uint64_t ExactQuantile(std::vector<uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  if (rank == 0) {
    rank = 1;
  }
  return values[rank - 1];
}

TEST(StatsTest, QuantileEmptyHistogramReturnsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Quantile(1.0), 0u);
}

TEST(StatsTest, QuantileExactForSingleValueBuckets) {
  // Values below 16 land in exact single-value buckets, so every quantile
  // must equal the reference order statistic exactly.
  Histogram h;
  std::vector<uint64_t> values;
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextBelow(16);
    h.Add(v);
    values.push_back(v);
  }
  for (double q : {0.01, 0.25, 0.50, 0.90, 0.99, 0.999}) {
    EXPECT_EQ(h.Quantile(q), ExactQuantile(values, q)) << "q=" << q;
  }
}

TEST(StatsTest, QuantileMatchesReferenceWithinBucketResolution) {
  // Wider log buckets bound the error by the sub-bucket width: 1/16 relative.
  Histogram h;
  std::vector<uint64_t> values;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = 1 + rng.NextBelow(1u << 20);
    h.Add(v);
    values.push_back(v);
  }
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double expect = static_cast<double>(ExactQuantile(values, q));
    const double got = static_cast<double>(h.Quantile(q));
    EXPECT_NEAR(got, expect, expect / 8.0) << "q=" << q;
  }
}

TEST(StatsTest, QuantileEndpointsAndMonotonicity) {
  Histogram h;
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    h.Add(5 + rng.NextBelow(100000));
  }
  EXPECT_EQ(h.Quantile(0.0), h.Min());
  EXPECT_EQ(h.Quantile(1.0), h.Max());
  uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const uint64_t v = h.Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(StatsTest, QuantileSingleSample) {
  Histogram h;
  h.Add(1234);
  for (double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 1234u);
  }
}

TEST(BackingStoreTest, ZeroFilledReads) {
  BackingStore bs;
  EXPECT_EQ(bs.ReadU64(0x1234), 0u);
  EXPECT_EQ(bs.allocated_pages(), 0u);  // reads never allocate
}

TEST(BackingStoreTest, ReadBackWrites) {
  BackingStore bs;
  bs.WriteU64(4096, 0xDEADBEEF);
  EXPECT_EQ(bs.ReadU64(4096), 0xDEADBEEFu);
  EXPECT_EQ(bs.allocated_pages(), 1u);
}

TEST(BackingStoreTest, CrossPageAccess) {
  BackingStore bs;
  uint8_t data[100];
  for (int i = 0; i < 100; ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  const Addr addr = kPageSize - 50;  // straddles a page boundary
  bs.Write(addr, data, sizeof(data));
  uint8_t out[100] = {};
  bs.Read(addr, out, sizeof(out));
  EXPECT_EQ(std::memcmp(data, out, sizeof(data)), 0);
  EXPECT_EQ(bs.allocated_pages(), 2u);
}

TEST(BackingStoreTest, ZeroRange) {
  BackingStore bs;
  bs.WriteU64(0, 7);
  bs.WriteU64(kPageSize, 9);
  bs.Zero(0, kPageSize);  // full page: dropped
  EXPECT_EQ(bs.ReadU64(0), 0u);
  EXPECT_EQ(bs.ReadU64(kPageSize), 9u);
  bs.Zero(kPageSize, 8);  // partial page: cleared in place
  EXPECT_EQ(bs.ReadU64(kPageSize), 0u);
}

TEST(BackingStoreTest, ColdReadsNeverAllocate) {
  BackingStore bs;
  uint8_t out[256];
  // Scattered cold reads across both radix regions (PM low, DRAM high) and
  // page boundaries: all zeros, no page materializes.
  const Addr probes[] = {0,
                         kPageSize - 1,
                         123 * kPageSize + 17,
                         (1ull << 30) + 5,
                         BackingStore::kDramRadixBase,
                         BackingStore::kDramRadixBase + 77 * kPageSize + 100};
  for (const Addr addr : probes) {
    EXPECT_EQ(bs.ReadU64(addr), 0u) << addr;
    bs.Read(addr, out, sizeof(out));
    for (uint8_t b : out) {
      ASSERT_EQ(b, 0u) << addr;
    }
  }
  EXPECT_EQ(bs.allocated_pages(), 0u);
}

TEST(BackingStoreTest, DramRegionIsIndependent) {
  // PM and DRAM addresses hang off separate radixes; same page offset in
  // each region must not alias.
  BackingStore bs;
  const Addr pm = 5 * kPageSize + 8;
  const Addr dram = BackingStore::kDramRadixBase + 5 * kPageSize + 8;
  bs.WriteU64(pm, 0xAAAA);
  bs.WriteU64(dram, 0xBBBB);
  EXPECT_EQ(bs.ReadU64(pm), 0xAAAAu);
  EXPECT_EQ(bs.ReadU64(dram), 0xBBBBu);
  EXPECT_EQ(bs.allocated_pages(), 2u);
  bs.Zero(pm - 8, kPageSize);
  EXPECT_EQ(bs.ReadU64(pm), 0u);
  EXPECT_EQ(bs.ReadU64(dram), 0xBBBBu);
  EXPECT_EQ(bs.allocated_pages(), 1u);
}

TEST(BackingStoreTest, ZeroDropsWholePagesAndClearsEdges) {
  BackingStore bs;
  // Three consecutive pages with data at the edges of each.
  for (int p = 0; p < 3; ++p) {
    bs.WriteU64(static_cast<Addr>(p) * kPageSize, 0x11);
    bs.WriteU64(static_cast<Addr>(p) * kPageSize + kPageSize - 8, 0x22);
  }
  ASSERT_EQ(bs.allocated_pages(), 3u);
  // Zero from mid-page 0 through mid-page 2: page 1 is dropped whole, the
  // partial edges are cleared in place, bytes outside the range survive.
  bs.Zero(kPageSize / 2, 2 * kPageSize);
  EXPECT_EQ(bs.allocated_pages(), 2u);  // page 1 gone
  EXPECT_EQ(bs.ReadU64(0), 0x11u);                          // before the range
  EXPECT_EQ(bs.ReadU64(kPageSize - 8), 0u);                 // page-0 tail cleared
  EXPECT_EQ(bs.ReadU64(kPageSize), 0u);                     // dropped page reads zero
  EXPECT_EQ(bs.ReadU64(2 * kPageSize), 0u);                 // page-2 head cleared
  EXPECT_EQ(bs.ReadU64(2 * kPageSize + kPageSize - 8), 0x22u);  // after the range
  // Zeroing never-written pages allocates nothing.
  bs.Zero(100 * kPageSize + 64, 3 * kPageSize);
  EXPECT_EQ(bs.allocated_pages(), 2u);
}

TEST(BackingStoreTest, AllocatedPagesStableAcrossChurn) {
  BackingStore bs;
  for (int round = 0; round < 3; ++round) {
    for (Addr p = 0; p < 8; ++p) {
      bs.WriteU64(p * kPageSize + 8 * p, 0xC0FFEE + p);
    }
    EXPECT_EQ(bs.allocated_pages(), 8u) << round;
    bs.Zero(0, 8 * kPageSize);
    EXPECT_EQ(bs.allocated_pages(), 0u) << round;
  }
  // Dropping then re-touching the last-page cache's page must re-materialize.
  bs.WriteU64(kPageSize, 1);
  bs.Zero(kPageSize, kPageSize);
  EXPECT_EQ(bs.ReadU64(kPageSize), 0u);
  bs.WriteU64(kPageSize, 2);
  EXPECT_EQ(bs.ReadU64(kPageSize), 2u);
  EXPECT_EQ(bs.allocated_pages(), 1u);
}

// Randomized mirror against a std::map-based reference store: same byte
// contents AND the same materialized-page set after arbitrary interleavings
// of Write/WriteU64/Read/ReadU64/Zero over both address regions.
class BackingStoreRadixFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackingStoreRadixFuzz, MatchesReferenceStore) {
  BackingStore bs;
  std::map<Addr, std::array<uint8_t, kPageSize>> ref;  // page base -> bytes
  Rng rng(GetParam());
  const Addr span = 6 * kPageSize;

  auto ref_write = [&](Addr addr, const uint8_t* data, size_t len) {
    for (size_t k = 0; k < len; ++k) {
      const Addr a = addr + k;
      auto [it, fresh] = ref.try_emplace(PageBase(a));
      if (fresh) {
        it->second.fill(0);
      }
      it->second[a - PageBase(a)] = data[k];
    }
  };
  auto ref_read = [&](Addr a) -> uint8_t {
    const auto it = ref.find(PageBase(a));
    return it == ref.end() ? 0 : it->second[a - PageBase(a)];
  };

  for (int op = 0; op < 6000; ++op) {
    // Half the traffic in PM, half in DRAM address space.
    const Addr region = rng.NextBelow(2) == 0 ? 0 : BackingStore::kDramRadixBase;
    const Addr addr = region + rng.NextBelow(span);
    switch (rng.NextBelow(5)) {
      case 0: {  // bulk write, possibly page-straddling
        uint8_t data[300];
        const size_t len = 1 + rng.NextBelow(sizeof(data));
        for (size_t k = 0; k < len; ++k) {
          data[k] = static_cast<uint8_t>(rng.Next());
        }
        bs.Write(addr, data, len);
        ref_write(addr, data, len);
        break;
      }
      case 1: {  // u64 write (the hot path)
        const uint64_t v = rng.Next();
        const Addr a = region + (rng.NextBelow(span) & ~7ull);
        bs.WriteU64(a, v);
        uint8_t bytes[8];
        std::memcpy(bytes, &v, 8);
        ref_write(a, bytes, 8);
        break;
      }
      case 2: {  // zero a range; whole pages inside it vanish from ref too
        const uint64_t len = 1 + rng.NextBelow(2 * kPageSize);
        bs.Zero(addr, len);
        for (Addr a = addr; a < addr + len;) {
          const uint64_t in_page = a - PageBase(a);
          const uint64_t chunk = std::min<uint64_t>(addr + len - a, kPageSize - in_page);
          if (in_page == 0 && chunk == kPageSize) {
            ref.erase(a);
          } else if (const auto it = ref.find(PageBase(a)); it != ref.end()) {
            std::memset(it->second.data() + in_page, 0, static_cast<size_t>(chunk));
          }
          a += chunk;
        }
        break;
      }
      case 3: {  // u64 read (the hot path)
        const Addr a = region + (rng.NextBelow(span) & ~7ull);
        uint64_t expected = 0;
        uint8_t bytes[8];
        for (int k = 0; k < 8; ++k) {
          bytes[k] = ref_read(a + static_cast<Addr>(k));
        }
        std::memcpy(&expected, bytes, 8);
        ASSERT_EQ(bs.ReadU64(a), expected) << "addr " << a;
        break;
      }
      default: {  // bulk read
        uint8_t out[300];
        const size_t len = 1 + rng.NextBelow(sizeof(out));
        bs.Read(addr, out, len);
        for (size_t k = 0; k < len; ++k) {
          ASSERT_EQ(out[k], ref_read(addr + k)) << "addr " << addr + k;
        }
        break;
      }
    }
    ASSERT_EQ(bs.allocated_pages(), ref.size()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackingStoreRadixFuzz, ::testing::Values(17u, 34u, 51u));

TEST(ConfigTest, G1Preset) {
  const PlatformConfig p = G1Platform();
  EXPECT_EQ(p.generation, Generation::kG1);
  EXPECT_EQ(p.optane.read_buffer_bytes, KiB(16));
  EXPECT_EQ(p.optane.write_buffer.capacity_bytes, KiB(16));
  EXPECT_TRUE(p.optane.write_buffer.periodic_full_writeback);
  EXPECT_TRUE(p.optane.same_line_flush_stall);
  EXPECT_FALSE(p.cache.clwb_retains_line);
  // 12 KB usable for partial XPLines.
  EXPECT_EQ(p.optane.write_buffer.partial_reserve_entries, 16u);
}

TEST(ConfigTest, G2Preset) {
  const PlatformConfig p = G2Platform();
  EXPECT_EQ(p.generation, Generation::kG2);
  EXPECT_EQ(p.optane.read_buffer_bytes, KiB(22));
  EXPECT_FALSE(p.optane.write_buffer.periodic_full_writeback);
  EXPECT_FALSE(p.optane.same_line_flush_stall);
  EXPECT_TRUE(p.cache.clwb_retains_line);
  EXPECT_EQ(p.optane.write_buffer.partial_reserve_entries, 0u);
}

// The paths whose FieldTexts differ between two configs, in list order.
std::vector<std::string> DiffPaths(const PlatformConfig& from, const PlatformConfig& to) {
  const std::vector<std::string> a = FieldTexts(from);
  const std::vector<std::string> b = FieldTexts(to);
  std::vector<std::string> paths;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      paths.push_back(a[i].substr(0, a[i].find('=')));
    }
  }
  return paths;
}

// DESIGN.md §1: the G1 testbed is the field-list defaults, and each later
// preset states only what differs from the one it starts from.
TEST(ConfigTest, PresetsAreDiffsOfTheFieldList) {
  EXPECT_EQ(DiffPaths(PlatformConfig{}, G1Platform()), std::vector<std::string>{"name"});
  const std::vector<std::string> g1_to_g2 = {
      "name",
      "generation",
      "cpu_ghz",
      "cache.l1.size_bytes",
      "cache.l1.ways",
      "cache.l1.hit_latency",
      "cache.l2.size_bytes",
      "cache.l2.ways",
      "cache.l2.hit_latency",
      "cache.l3.size_bytes",
      "cache.l3.ways",
      "cache.l3.hit_latency",
      "cache.clwb_retains_line",
      "optane.read_buffer_bytes",
      "optane.write_buffer.partial_reserve_entries",
      "optane.write_buffer.periodic_full_writeback",
      "optane.write_buffer.batch_evict",
      "optane.buffer_hit_latency",
      "optane.media_read_latency",
      "optane.media_write_latency",
      "optane.ait_miss_penalty",
      "optane.write_visible_delay",
      "optane.same_line_flush_stall",
      "optane.unordered_read_overlap",
      "dram.load_latency",
      "dram.write_visible_delay",
      "dram.unordered_read_overlap",
      "imc.numa_hop_latency",
  };
  EXPECT_EQ(DiffPaths(G1Platform(), G2Platform()), g1_to_g2);
  EXPECT_EQ(DiffPaths(G2Platform(), G2EadrPlatform()),
            (std::vector<std::string>{"name", "eadr_enabled"}));
}

TEST(ConfigTest, CacheGeometryDividesEvenly) {
  for (const PlatformConfig& p : {G1Platform(), G2Platform()}) {
    for (const CacheLevelConfig& lvl : {p.cache.l1, p.cache.l2, p.cache.l3}) {
      EXPECT_EQ(lvl.size_bytes % (kCacheLineSize * lvl.ways), 0u)
          << p.name << " level size " << lvl.size_bytes;
    }
  }
}

}  // namespace
}  // namespace pmemsim
