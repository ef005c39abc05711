// Byte-lane primitives for small LRU-ordered tables: a row of 1-byte keys
// (fingerprints) matched all at once, and a row of 1-byte LRU ages kept as a
// permutation. SetAssocCache's meta line (a fingerprint and an age per way)
// and PrefetchEngine's stream table (a page fingerprint and an age per
// entry) both run on them; this header is the one place with SSE2 code.
//
// A row has `lanes` bytes in use, 1 to 32, and is stored 16-byte aligned in
// whole 16-byte groups: the vector paths load every group that covers
// `lanes`, so bytes past `lanes` up to the next multiple of 16 must be
// readable. They are padding, and they count as follows:
//
//  * MatchLanes reports padding lanes too (each caller ANDs the result with
//    its own valid mask, which never has a padding bit).
//  * The ages of lanes 0..lanes-1 are a permutation of 0..lanes-1. A touch
//    makes its lane 0 and ages every lane younger than it by one, so the
//    oldest lane has age lanes-1. Padding ages must be at least lanes-1 and
//    below 128 (the vector compare is signed): TouchAges then never moves
//    them, and OldestLane masks them out.
//
// Where SSE2 is baseline (x86-64: no -march or dispatch, so everything here
// stays inlinable), MatchLanes is one compare and movemask per group,
// TouchAges one compare and subtract per group and OldestLane a MatchLanes
// on age lanes-1. The *Scalar twins walk the lanes one at a time: other
// targets run them, and Debug builds check every vector result against them.

#ifndef SRC_CACHE_BYTE_LANES_H_
#define SRC_CACHE_BYTE_LANES_H_

#include <bit>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/common/check.h"

namespace pmemsim {

// The bytes a row of `lanes` lanes occupies: whole 16-byte groups.
constexpr uint32_t LaneBytes(uint32_t lanes) { return (lanes + 15) & ~15u; }

// Bit i set iff lane i < `lanes`.
constexpr uint32_t LaneMask(uint32_t lanes) { return lanes >= 32 ? ~0u : (1u << lanes) - 1; }

// Bit i set iff bytes[i] == value, for every lane of the groups covering
// `lanes` (padding lanes included), one lane at a time.
inline uint32_t MatchLanesScalar(const uint8_t* bytes, uint8_t value, uint32_t lanes) {
  uint32_t hits = 0;
  for (uint32_t i = 0; i < LaneBytes(lanes); ++i) {
    hits |= (bytes[i] == value ? 1u : 0u) << i;
  }
  return hits;
}

// MatchLanesScalar's result, 16 lanes a step.
inline uint32_t MatchLanes(const uint8_t* bytes, uint8_t value, uint32_t lanes) {
#if defined(__SSE2__)
  const __m128i want = _mm_set1_epi8(static_cast<char>(value));
  const __m128i* groups = reinterpret_cast<const __m128i*>(bytes);
  uint32_t hits = 0;
  for (uint32_t i = 0; i < lanes; i += 16) {
    const __m128i eq = _mm_cmpeq_epi8(_mm_load_si128(groups + i / 16), want);
    hits |= static_cast<uint32_t>(_mm_movemask_epi8(eq)) << i;
  }
  PMEMSIM_DCHECK(hits == MatchLanesScalar(bytes, value, lanes));
  return hits;
#else
  return MatchLanesScalar(bytes, value, lanes);
#endif
}

// Makes `lane` the most recent: every lane younger than it ages by one, and
// it becomes age 0. One lane at a time.
inline void TouchAgesScalar(uint8_t* ages, uint32_t lane, uint32_t lanes) {
  const uint8_t age = ages[lane];
  for (uint32_t i = 0; i < lanes; ++i) {
    ages[i] += ages[i] < age ? 1 : 0;
  }
  ages[lane] = 0;
}

// TouchAgesScalar's update, 16 lanes a step; a lane already at age 0 is left
// as it is.
inline void TouchAges(uint8_t* ages, uint32_t lane, uint32_t lanes) {
  const uint8_t age = ages[lane];
  if (age == 0) {
    return;
  }
#if defined(__SSE2__)
#ifndef NDEBUG
  uint8_t want[32];
  std::memcpy(want, ages, LaneBytes(lanes));
  TouchAgesScalar(want, lane, lanes);
#endif
  const __m128i touched = _mm_set1_epi8(static_cast<char>(age));
  for (uint32_t i = 0; i < lanes; i += 16) {
    __m128i* group = reinterpret_cast<__m128i*>(ages + i);
    const __m128i v = _mm_load_si128(group);
    // A younger lane's compare is all ones (-1): subtracting it adds one.
    _mm_store_si128(group, _mm_sub_epi8(v, _mm_cmpgt_epi8(touched, v)));
  }
  ages[lane] = 0;
  PMEMSIM_DCHECK(std::memcmp(ages, want, LaneBytes(lanes)) == 0);
#else
  TouchAgesScalar(ages, lane, lanes);
#endif
}

// The first lane whose age is lanes - 1, by a walk over the ages.
inline uint32_t OldestLaneScalar(const uint8_t* ages, uint32_t lanes) {
  uint32_t lane = 0;
  while (ages[lane] != lanes - 1) {
    ++lane;
  }
  return lane;
}

// The lane whose age is lanes - 1: the least recently touched one. Debug
// builds check that it is the only one and that OldestLaneScalar agrees.
inline uint32_t OldestLane(const uint8_t* ages, uint32_t lanes) {
  const uint8_t oldest = static_cast<uint8_t>(lanes - 1);
  const uint32_t hits = MatchLanes(ages, oldest, lanes) & LaneMask(lanes);
  PMEMSIM_DCHECK(std::popcount(hits) == 1);
  const uint32_t lane = static_cast<uint32_t>(std::countr_zero(hits));
  PMEMSIM_DCHECK(lane == OldestLaneScalar(ages, lanes));
  return lane;
}

}  // namespace pmemsim

#endif  // SRC_CACHE_BYTE_LANES_H_
