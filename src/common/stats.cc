#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/trace/json.h"

namespace pmemsim {

Histogram::Histogram() : buckets_(static_cast<size_t>(kOctaves) * kSubBuckets, 0) {}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

double Histogram::mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  PMEMSIM_CHECK(q >= 0.0 && q <= 1.0);
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  // The extreme ranks are tracked exactly; skip the in-bucket interpolation,
  // which can only blur them.
  if (target == 1) {
    return min_;
  }
  if (target == count_) {
    return max_;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t in_bucket = buckets_[i];
    if (in_bucket == 0) {
      continue;
    }
    if (seen + in_bucket >= target) {
      // The rank-`target` sample is the (target - seen)-th of this bucket's
      // samples; spread the bucket's population uniformly over its value span
      // and read the rank's position off that line.
      const int b = static_cast<int>(i);
      uint64_t lo;
      uint64_t width;
      if (b < kSubBuckets) {
        lo = static_cast<uint64_t>(b);
        width = 1;
      } else {
        const int octave = b / kSubBuckets;
        const int sub = b % kSubBuckets;
        lo = (static_cast<uint64_t>(kSubBuckets) | static_cast<uint64_t>(sub)) << (octave - 1);
        width = 1ull << std::max(0, octave - 1);
      }
      const double pos =
          (static_cast<double>(target - seen) - 0.5) / static_cast<double>(in_bucket);
      const uint64_t v = lo + static_cast<uint64_t>(pos * static_cast<double>(width));
      return std::clamp(v, min_, max_);
    }
    seen += in_bucket;
  }
  return max_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = max_ = 0;
  sum_ = 0.0;
}

void Histogram::ToJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("count").Value(count_);
  if (count_ == 0) {
    // An empty histogram has no summary statistics: nulls, not zeros, so a
    // consumer cannot mistake "never sampled" for "measured zero latency".
    w.Key("mean").Null();
    w.Key("min").Null();
    w.Key("max").Null();
    w.Key("p50").Null();
    w.Key("p90").Null();
    w.Key("p99").Null();
    w.Key("p999").Null();
    w.EndObject();
    return;
  }
  w.Key("mean").Value(mean());
  w.Key("min").Value(Min());
  w.Key("max").Value(Max());
  w.Key("p50").Value(Quantile(0.50));
  w.Key("p90").Value(Quantile(0.90));
  w.Key("p99").Value(Quantile(0.99));
  w.Key("p999").Value(Quantile(0.999));
  w.EndObject();
}

std::string Histogram::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.str();
}

}  // namespace pmemsim
