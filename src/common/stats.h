// Latency statistics used by the tools, the serving tier and tests.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace pmemsim {

class JsonWriter;

// Log-bucketed latency histogram (power-of-two buckets with linear sub-buckets)
// with one quantile estimator, Quantile(). Good enough for cycle latencies
// spanning 1..10^7.
class Histogram {
 public:
  Histogram();

  // Inline: the attribution layer adds several samples per simulated access.
  void Add(uint64_t value) { Add(value, BucketFor(value)); }
  // Add with the bucket already computed, `bucket` == BucketFor(value), for a
  // caller filing one value into several histograms.
  void Add(uint64_t value, int bucket);
  void Merge(const Histogram& other);

  // The bucket of `value`: values below 16 get one bucket each, then 16
  // linear sub-buckets per octave; values of 2^42 and up share the last one.
  static int BucketFor(uint64_t value);

  uint64_t count() const { return count_; }
  double mean() const;
  // Exact-rank quantile extraction, q in [0, 1]: locates the bucket holding
  // the sample of rank ceil(q * count) and interpolates the rank's position
  // linearly across the bucket's value span. Values below 16 land in
  // single-value buckets, so quantiles over them are exact; wider buckets
  // bound the error by the sub-bucket resolution (1/16 relative). q=0 yields
  // Min(), q=1 yields Max(). Returns 0 on an empty histogram — callers that
  // must distinguish "no samples" from "0-cycle latency" check count() first
  // (ToJson emits nulls for exactly this reason).
  uint64_t Quantile(double q) const;
  uint64_t Min() const { return count_ ? min_ : 0; }
  uint64_t Max() const { return count_ ? max_ : 0; }

  void Reset();

  // Count/mean/min/max plus the standard quantile ladder (p50..p999).
  // An empty histogram serializes as count:0 with null statistics.
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

 private:
  static constexpr int kSubBucketBits = 4;  // 16 linear sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  // Octave 0 holds 0..15 exactly; octave k >= 1 holds [2^(k+3), 2^(k+4)).
  static constexpr int kOctaves = 39;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  double sum_ = 0.0;
};

inline int Histogram::BucketFor(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  const int msb = 63 - __builtin_clzll(value);
  const int octave = msb - kSubBucketBits + 1;
  const int sub = static_cast<int>((value >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  return std::min<int>(octave * kSubBuckets + sub, kOctaves * kSubBuckets - 1);
}

inline void Histogram::Add(uint64_t value, int bucket) {
  PMEMSIM_DCHECK(bucket == BucketFor(value));
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += static_cast<double>(value);
  ++buckets_[static_cast<size_t>(bucket)];
}

}  // namespace pmemsim

#endif  // SRC_COMMON_STATS_H_
