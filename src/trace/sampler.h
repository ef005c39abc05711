// Interval sampler: the simulator's `ipmwatch -i <interval>`.
//
// The paper's methodology is *interval* observation — media/controller
// counters sampled once per second, with every buffering inference (read
// buffer size, write-buffer eviction regimes, G1's periodic write-back)
// derived from how WA/RA and traffic evolve over a run, not from end-of-run
// totals. The sampler reproduces that view in simulated time: every
// `interval_cycles` of the global simulated clock it snapshots the counter
// *deltas* accumulated since the previous boundary, plus instantaneous
// occupancy gauges (WPQ entries, buffer residency) supplied by the owner.
//
// Attribution contract: an event is charged to the interval that was open
// when the sampler next observed the clock, so the per-interval series is a
// partition of the run — the field-wise sum over all samples (including the
// closing partial interval emitted by Finalize) equals the global counter
// delta over the sampled span *exactly*. Tests and scripts/check_samples.py
// gate on that identity.
//
// Driving: Scheduler::Run(jobs, &sampler) calls AdvanceTo with the global
// minimum job clock before every step, so boundaries are observed in
// simulated-time order regardless of thread interleaving; single-threaded
// loops may call AdvanceTo directly. Idle intervals emit zero-delta samples
// (ipmwatch prints idle seconds too); a run crossing more than kMaxSamples
// boundaries drops the excess and counts them in dropped_samples().

#ifndef SRC_TRACE_SAMPLER_H_
#define SRC_TRACE_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/trace/counters.h"

namespace pmemsim {

class JsonWriter;

// The gauge fields, as PMEMSIM_COUNTER_FIELDS is for Counters: SampleGauges'
// members, its += and its JSON writer come from this list.
#define PMEMSIM_GAUGE_FIELDS(X)     \
  X(double, wpq_occupancy)          \
  X(uint64_t, read_buffer_entries)  \
  X(uint64_t, write_buffer_entries) \
  X(uint64_t, serve_queue_depth)

// Instantaneous occupancy values read at each interval boundary — gauges, as
// opposed to the monotone counter deltas: entries across the Optane WPQs,
// occupied on-DIMM read-buffer slots and write-buffer entries, and the
// serving tier's request-queue occupancy. Filled by the gauge source the
// owner installs (typically summing over a System's DIMMs/WPQs).
struct SampleGauges {
#define PMEMSIM_DECLARE_GAUGE(type, name) type name = 0;
  PMEMSIM_GAUGE_FIELDS(PMEMSIM_DECLARE_GAUGE)
#undef PMEMSIM_DECLARE_GAUGE

  SampleGauges& operator+=(const SampleGauges& rhs);  // several Systems as one
  void WriteFields(JsonWriter& w) const;              // into the open object
};

// One interval of a series: the memory-plane samples and the serve windows.
struct WindowHeader {
  uint64_t index = 0;    // interval number, 0-based
  Cycles t_begin = 0;    // inclusive start of the interval
  Cycles t_end = 0;      // exclusive end (the boundary, or the closing clock)
  bool partial = false;  // closing interval cut short by Finalize

  void WriteHeader(JsonWriter& w) const;  // the four fields, into the open object
};

struct Sample : WindowHeader {
  Counters delta;       // counter deltas accumulated within the interval
  SampleGauges gauges;  // read at t_end
};

class Sampler {
 public:
  using GaugeFn = std::function<SampleGauges(Cycles now)>;
  using SampleFn = std::function<void(const Sample&)>;

  // `counters` is the source snapshot (usually the System's registry-bound
  // aggregate; CounterDelta Sync()s it on every read). `interval_cycles` > 0.
  // `origin` anchors the boundary grid: intervals are [origin + k*interval,
  // origin + (k+1)*interval), so a series opened mid-run (the serve phase)
  // aligns its samples with other series sharing the origin.
  Sampler(const Counters* counters, Cycles interval_cycles, Cycles origin = 0);

  // Installs the gauge source consulted at each boundary (optional).
  void SetGaugeSource(GaugeFn fn) { gauge_fn_ = std::move(fn); }
  // Streaming consumer called as each sample is emitted (pmemsim_watch's
  // per-interval rows). The sample is also retained in samples().
  void SetOnSample(SampleFn fn) { on_sample_ = std::move(fn); }

  // Observes the simulated clock: emits one sample per interval boundary in
  // [previous boundary, now]. Must be called with non-decreasing `now`.
  void AdvanceTo(Cycles now);

  // Closes the series at `end`: emits the final (possibly partial) interval
  // so the sample deltas partition the whole run. Idempotent per boundary —
  // calling with `end` on an exact boundary emits no empty extra sample
  // unless residual deltas arrived after the last AdvanceTo.
  void Finalize(Cycles end);

  const std::vector<Sample>& samples() const { return samples_; }
  uint64_t dropped_samples() const { return dropped_; }
  Cycles interval_cycles() const { return interval_; }

  // Field-wise sum of every emitted sample's delta (== the global counter
  // delta over the sampled span; the invariant CI gates on).
  Counters SumOfDeltas() const;

  // JSON array of samples: [{"index":..,"t_begin":..,"t_end":..,
  // "partial":..,"delta":{counters...},"gauges":{...}}, ...].
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

 private:
  // Bounds memory for pathological interval/run-length combinations.
  static constexpr uint64_t kMaxSamples = 1ull << 20;

  void Emit(Cycles t_end, bool partial);

  const Counters* counters_;
  Cycles interval_;
  Cycles last_boundary_ = 0;   // t_begin of the currently open interval
  Cycles next_boundary_;
  CounterDelta delta_;
  uint64_t index_ = 0;
  uint64_t dropped_ = 0;
  bool finalized_ = false;
  GaugeFn gauge_fn_;
  SampleFn on_sample_;
  std::vector<Sample> samples_;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_SAMPLER_H_
