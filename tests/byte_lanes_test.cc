// The byte-lane primitives of src/cache/byte_lanes.h against their scalar
// twins, on random rows at every lane count the cache and the stream table
// use. The twins are what targets without SSE2 run, and on x86-64 they are
// compiled only as Debug cross-checks, so this is their check in optimized
// builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/cache/byte_lanes.h"
#include "src/common/random.h"

namespace pmemsim {
namespace {

constexpr uint32_t kLaneCounts[] = {4, 8, 11, 16, 32};

// True iff the first `lanes` ages are a permutation of 0..lanes-1.
bool IsPermutation(const uint8_t* ages, uint32_t lanes) {
  std::vector<uint8_t> sorted(ages, ages + lanes);
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < lanes; ++i) {
    if (sorted[i] != i) {
      return false;
    }
  }
  return true;
}

// A random age permutation over `lanes` lanes; padding lanes get random ages
// from lanes - 1 to 127, as the contract in byte_lanes.h asks.
void RandomAges(Rng& rng, uint32_t lanes, uint8_t* ages) {
  std::vector<uint8_t> perm(lanes);
  for (uint32_t i = 0; i < lanes; ++i) {
    perm[i] = static_cast<uint8_t>(i);
  }
  rng.Shuffle(perm);
  std::memcpy(ages, perm.data(), lanes);
  for (uint32_t i = lanes; i < LaneBytes(lanes); ++i) {
    ages[i] = static_cast<uint8_t>(lanes - 1 + rng.NextBelow(129 - lanes));
  }
}

TEST(ByteLanesTest, MatchLanesAgreesWithScalarTwin) {
  Rng rng(11);
  for (const uint32_t lanes : kLaneCounts) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    for (int trial = 0; trial < 2000; ++trial) {
      alignas(16) uint8_t bytes[32];
      // A small alphabet, so most rows have several lanes equal to the value.
      for (uint8_t& b : bytes) {
        b = static_cast<uint8_t>(rng.NextBelow(4) * 85);
      }
      const uint8_t value = static_cast<uint8_t>(rng.NextBelow(4) * 85);
      const uint32_t hits = MatchLanesScalar(bytes, value, lanes);
      ASSERT_EQ(MatchLanes(bytes, value, lanes), hits);
      for (uint32_t i = 0; i < LaneBytes(lanes); ++i) {
        ASSERT_EQ((hits >> i & 1) != 0, bytes[i] == value) << "lane " << i;
      }
      ASSERT_EQ(hits >> (LaneBytes(lanes) - 1) >> 1, 0u);  // no bit past the row
    }
  }
}

TEST(ByteLanesTest, TouchAgesAndOldestLaneAgreeWithScalarTwins) {
  Rng rng(12);
  for (const uint32_t lanes : kLaneCounts) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    for (int trial = 0; trial < 50; ++trial) {
      alignas(16) uint8_t ages[32];
      RandomAges(rng, lanes, ages);
      alignas(16) uint8_t twin[32];
      std::memcpy(twin, ages, sizeof(ages));
      // The lanes in LRU order, most recent first.
      std::vector<uint32_t> order(lanes);
      for (uint32_t i = 0; i < lanes; ++i) {
        order[ages[i]] = i;
      }
      for (int step = 0; step < 200; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const uint32_t oldest = OldestLaneScalar(twin, lanes);
        ASSERT_EQ(OldestLane(ages, lanes), oldest);
        ASSERT_EQ(oldest, order.back());

        const uint32_t lane = static_cast<uint32_t>(rng.NextBelow(lanes));
        TouchAges(ages, lane, lanes);
        TouchAgesScalar(twin, lane, lanes);
        ASSERT_EQ(std::memcmp(ages, twin, LaneBytes(lanes)), 0);
        ASSERT_TRUE(IsPermutation(twin, lanes));
        order.erase(std::find(order.begin(), order.end(), lane));
        order.insert(order.begin(), lane);
        for (uint32_t age = 0; age < lanes; ++age) {
          ASSERT_EQ(twin[order[age]], age);
        }
      }
    }
  }
}

}  // namespace
}  // namespace pmemsim
