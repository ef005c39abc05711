// Windowed serve-phase telemetry: the serving tier's `ipmwatch`.
//
// End-of-run aggregates hide exactly the pathologies the paper's methodology
// is built to expose — a shed burst, a warm-up tail, a write-buffer thrash
// episode are visible only in the *timeline*. ServeMetrics reproduces the
// interval view for the request plane: per `interval_cycles` window of
// simulated time it reports throughput (completions), admissions, sheds, the
// queue-depth gauge at window close, and windowed p50/p99/p999 sojourn
// quantiles, optionally joined with the memory-plane interval series (a
// Sampler over the same origin/interval, so windows align exactly).
//
// Determinism: events land in windows by their *simulated* timestamps, and
// every per-window aggregate is commutative (counts sum, histogram adds
// commute), so the timeline depends only on the simulated event set — never
// on host interleaving. The one order-sensitive reading, the queue-depth
// gauge, takes the latest observation per window, at equal times the later
// call in the owning engine's deterministic step order. That is what makes
// the emitted timeline byte-identical at any --jobs x --engine_threads.
//
// Conservation (gated by tests and scripts/check_timeline.py): the windows
// tile [origin, end) contiguously (only the final window may be partial), and
// the field-wise window sums equal the whole-run totals exactly — completed,
// admitted, and shed events each land in exactly one window.
//
// ServeTimeline bundles one ServeMetrics (plus optional SpanRecorder) per
// shard, merges them into the global per-window view (the memory plane is
// joined once per System: when shards share one, the first carries it),
// evaluates the SLO
// monitor (--slo_p99_cycles), and serializes the --timeline_json artifact.
// FlushTruncated() closes a timeline whose sweep point failed before the tier
// finalized it (pmemsim_serve's main calls it on every point after the
// sweep), so a failed point still emits a well-formed, marked-truncated
// timeline.

#ifndef SRC_TRACE_SERVE_METRICS_H_
#define SRC_TRACE_SERVE_METRICS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/trace/counters.h"
#include "src/trace/sampler.h"
#include "src/trace/span.h"

namespace pmemsim {

class JsonWriter;

// One telemetry window: [t_begin, t_end), except the closing window which
// also owns events stamped exactly at its t_end.
struct ServeWindow : WindowHeader {
  uint64_t completed = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t queue_depth = 0;  // occupancy at window close (carried forward)
  std::optional<Cycles> depth_time;  // latest depth observation; none = carried
  Histogram sojourn;     // per-window sojourn latencies -> windowed tails
  bool has_mem = false;  // memory-plane interval joined in
  Counters mem_delta;
  SampleGauges mem_gauges;
};

// Writes sojourn_p50/p99/p999 (exact-rank) into the open object, null if empty.
void SojournTailsToJson(JsonWriter& w, const Histogram& sojourn);

// Per-shard windowed serve metrics. All recording calls happen on the shard's
// engine thread (lockstep, or the domain's host thread within an epoch);
// Begin/Finalize happen on the coordinator outside engine execution.
class ServeMetrics {
 public:
  explicit ServeMetrics(Cycles interval_cycles);

  // Opens the series at the serve-phase origin. Must precede any Record*.
  void Begin(Cycles origin);

  // Joins a memory-plane interval series: a Sampler over `counters` aligned
  // to this series' origin/interval. Call after Begin; the owner drives the
  // returned sampler (Scheduler::Run / RunUntil observation hooks).
  Sampler* AttachMemSampler(const Counters* counters, Sampler::GaugeFn gauges);

  void RecordAdmission(Cycles t);
  void RecordShed(Cycles t);
  void RecordCompletion(Cycles end, Cycles sojourn);
  // Queue-occupancy gauge: the latest observation per window (at equal
  // times, the later call) closes the window.
  void ObserveQueueDepth(Cycles t, uint64_t depth);

  // Completes the contiguous window list over [origin, end], with zero
  // windows for idle intervals and the joined mem samples folded in.
  // Idempotent (later calls are ignored), so a truncated flush after a
  // normal finalize changes nothing.
  void Finalize(Cycles end);

  // Largest event timestamp observed; the truncated-flush finalize point.
  Cycles max_observed() const { return max_observed_; }
  uint64_t total_completed() const { return total_completed_; }
  uint64_t total_admitted() const { return total_admitted_; }
  uint64_t total_shed() const { return total_shed_; }

  // Indexed by window number, recorded into directly; whole after Finalize.
  const std::vector<ServeWindow>& windows() const { return windows_; }

 private:
  ServeWindow& WindowAt(Cycles t);  // grows the list to reach `t`'s window

  Cycles interval_;
  Cycles origin_ = 0;
  bool begun_ = false;
  bool finalized_ = false;
  Cycles max_observed_ = 0;
  uint64_t total_completed_ = 0;
  uint64_t total_admitted_ = 0;
  uint64_t total_shed_ = 0;
  std::unique_ptr<Sampler> sampler_;
  std::vector<ServeWindow> windows_;
};

// The whole-point serve timeline: one ServeMetrics (and optionally one
// SpanRecorder) per shard, merged to a global per-window view, SLO monitor,
// and the --timeline_json / span-export serializers.
class ServeTimeline {
 public:
  struct Config {
    std::string mix;
    std::string loop;
    std::string store;
    // "interleaved" (shard domains on one shared System) or "partitioned"
    // (one System per domain).
    // Deliberately no engine_threads anywhere in the artifact: the timeline
    // must byte-compare across host thread counts.
    std::string engine;
    uint32_t shards = 1;
    Cycles interval_cycles = 0;
    uint64_t slo_p99_cycles = 0;  // 0 = SLO monitor off
  };

  struct SloSummary {
    uint64_t violations = 0;
    uint64_t windows = 0;
    uint64_t windows_with_traffic = 0;
    double burn_rate = 0.0;  // violations / windows_with_traffic
    // The timeline's "slo" block and pmemsim_serve's "slo" entries.
    void WriteFields(JsonWriter& w) const;
  };

  explicit ServeTimeline(const Config& cfg);

  const Config& config() const { return cfg_; }

  // Creates one SpanRecorder per shard (off by default: pay-for-use).
  void EnableSpans();

  ServeMetrics* shard(uint32_t s) { return metrics_[s].get(); }
  // nullptr unless EnableSpans() was called.
  SpanRecorder* spans(uint32_t s) {
    return recorders_.empty() ? nullptr : recorders_[s].get();
  }

  // Opens every shard series at the serve-phase origin.
  void Begin(Cycles origin);

  // Normal close at the engine's serve end (every shard at the same end, so
  // window counts line up across shards).
  void Finalize(Cycles end);

  // Failure path: finalizes at the maximum observed event time so a failed
  // sweep point still yields a well-formed timeline, marked truncated. Safe
  // to call at any point in the lifecycle, repeatedly; a no-op after
  // Finalize.
  void FlushTruncated();
  bool truncated() const { return truncated_; }

  // Valid after Finalize/FlushTruncated.
  const std::vector<ServeWindow>& global_windows() const { return global_windows_; }
  SloSummary Slo() const;

  // The per-point --timeline_json artifact (see scripts/check_timeline.py
  // for the schema this must satisfy).
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

  // Compact span export: columnar arrays, one row per span, shards
  // concatenated in index order.
  std::string SpansToJson() const;

 private:
  void MergeGlobal();
  void WindowToJson(JsonWriter& w, const ServeWindow& win, bool with_slo) const;

  Config cfg_;
  std::vector<std::unique_ptr<ServeMetrics>> metrics_;
  std::vector<std::unique_ptr<SpanRecorder>> recorders_;
  std::vector<ServeWindow> global_windows_;
  Cycles origin_ = 0;
  Cycles end_ = 0;
  bool begun_ = false;
  bool finalized_ = false;
  bool truncated_ = false;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_SERVE_METRICS_H_
