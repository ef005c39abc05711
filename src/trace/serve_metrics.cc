#include "src/trace/serve_metrics.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/trace/json.h"
#include "src/workload/ycsb.h"

namespace pmemsim {

ServeMetrics::ServeMetrics(Cycles interval_cycles) : interval_(interval_cycles) {
  PMEMSIM_CHECK_MSG(interval_ > 0, "serve metrics interval must be positive");
}

void ServeMetrics::Begin(Cycles origin) {
  PMEMSIM_CHECK_MSG(!begun_, "ServeMetrics::Begin called twice");
  begun_ = true;
  origin_ = origin;
  max_observed_ = origin;
}

Sampler* ServeMetrics::AttachMemSampler(const Counters* counters, Sampler::GaugeFn gauges) {
  PMEMSIM_CHECK_MSG(begun_, "AttachMemSampler requires Begin (origin anchors the series)");
  sampler_ = std::make_unique<Sampler>(counters, interval_, origin_);
  sampler_->SetGaugeSource(std::move(gauges));
  return sampler_.get();
}

ServeWindow& ServeMetrics::WindowAt(Cycles t) {
  PMEMSIM_CHECK_MSG(begun_, "serve metrics event before Begin");
  PMEMSIM_CHECK_MSG(t >= origin_, "serve metrics event predates the series origin");
  max_observed_ = std::max(max_observed_, t);
  const uint64_t index = (t - origin_) / interval_;
  if (index >= windows_.size()) {
    windows_.resize(index + 1);
  }
  return windows_[index];
}

void ServeMetrics::RecordAdmission(Cycles t) {
  ++WindowAt(t).admitted;
  ++total_admitted_;
}

void ServeMetrics::RecordShed(Cycles t) {
  ++WindowAt(t).shed;
  ++total_shed_;
}

void ServeMetrics::RecordCompletion(Cycles end, Cycles sojourn) {
  ServeWindow& win = WindowAt(end);
  ++win.completed;
  win.sojourn.Add(sojourn);
  ++total_completed_;
}

void ServeMetrics::ObserveQueueDepth(Cycles t, uint64_t depth) {
  ServeWindow& win = WindowAt(t);
  // Latest observation wins; at equal timestamps the later call wins, which
  // within one engine's deterministic step order is itself deterministic.
  if (!win.depth_time || t >= *win.depth_time) {
    win.depth_time = t;
    win.queue_depth = depth;
  }
}

void ServeMetrics::Finalize(Cycles end) {
  if (finalized_) return;
  PMEMSIM_CHECK_MSG(begun_, "ServeMetrics::Finalize before Begin");
  PMEMSIM_CHECK_MSG(end >= max_observed_,
                    "serve metrics finalized before the last recorded event");
  finalized_ = true;

  const Cycles span = end - origin_;
  uint64_t total = span / interval_ + ((span % interval_) ? 1 : 0);
  // An empty or instantaneous serve phase still materializes one (possibly
  // zero-width) closing window so every timeline has windows to gate on.
  if (total == 0) total = 1;

  // Events stamped exactly at `end` when `end` lies on a boundary were
  // recorded one past the last window; the closing window owns its right
  // edge, so clamp them in. Stamped at `end`, their depth observation is the
  // closing window's latest.
  if (windows_.size() > total) {
    ServeWindow& last = windows_[total - 1];
    const ServeWindow& edge = windows_[total];
    last.completed += edge.completed;
    last.admitted += edge.admitted;
    last.shed += edge.shed;
    last.sojourn.Merge(edge.sojourn);
    if (edge.depth_time) {
      last.depth_time = edge.depth_time;
      last.queue_depth = edge.queue_depth;
    }
  }
  windows_.resize(total);

  // Queue depth is a gauge: windows without an observation carry the last
  // known occupancy forward (an idle window still has a queue).
  uint64_t depth = 0;
  for (uint64_t i = 0; i < total; ++i) {
    ServeWindow& win = windows_[i];
    win.index = i;
    win.t_begin = origin_ + i * interval_;
    win.t_end = std::min(origin_ + (i + 1) * interval_, end);
    win.partial = (win.t_end - win.t_begin) < interval_;
    if (win.depth_time) {
      depth = win.queue_depth;
    } else {
      win.queue_depth = depth;
    }
  }

  // Graft the joined memory-plane series: samples align by construction
  // (same origin, same interval). The sampler may have observed idle clock
  // beyond `end` on the truncated path; clamp those samples in too.
  if (sampler_) {
    sampler_->Finalize(std::max(end, origin_));
    for (const Sample& s : sampler_->samples()) {
      ServeWindow& win = windows_[std::min<uint64_t>(s.index, total - 1)];
      win.has_mem = true;
      win.mem_delta += s.delta;
      win.mem_gauges = s.gauges;  // boundary gauge: last sample wins
    }
  }
}

ServeTimeline::ServeTimeline(const Config& cfg) : cfg_(cfg) {
  PMEMSIM_CHECK_MSG(cfg_.shards > 0, "serve timeline needs at least one shard");
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    metrics_.push_back(std::make_unique<ServeMetrics>(cfg_.interval_cycles));
  }
}

void ServeTimeline::EnableSpans() {
  if (!recorders_.empty()) return;
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    recorders_.push_back(std::make_unique<SpanRecorder>(s));
  }
}

void ServeTimeline::Begin(Cycles origin) {
  PMEMSIM_CHECK_MSG(!begun_, "ServeTimeline::Begin called twice");
  begun_ = true;
  origin_ = origin;
  for (auto& m : metrics_) m->Begin(origin);
}

void ServeTimeline::Finalize(Cycles end) {
  if (finalized_) return;
  PMEMSIM_CHECK_MSG(begun_, "ServeTimeline::Finalize before Begin");
  finalized_ = true;
  end_ = end;
  for (auto& m : metrics_) m->Finalize(end);
  MergeGlobal();
}

void ServeTimeline::FlushTruncated() {
  if (finalized_) return;
  truncated_ = true;
  if (!begun_) Begin(0);
  Cycles end = origin_;
  for (auto& m : metrics_) end = std::max(end, m->max_observed());
  Finalize(end);
}

void ServeTimeline::MergeGlobal() {
  // Every shard finalized at the same [origin, end] with the same interval,
  // so the window lists are congruent; the global view is the per-index
  // field-wise merge in fixed shard order (determinism: commutative sums,
  // fixed iteration order for the one double field).
  const size_t n = metrics_[0]->windows().size();
  for (const auto& m : metrics_) {
    PMEMSIM_CHECK_MSG(m->windows().size() == n, "shard window counts diverge");
  }
  global_windows_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ServeWindow& g = global_windows_[i];
    static_cast<WindowHeader&>(g) = metrics_[0]->windows()[i];
    for (const auto& m : metrics_) {
      const ServeWindow& w = m->windows()[i];
      g.completed += w.completed;
      g.admitted += w.admitted;
      g.shed += w.shed;
      g.queue_depth += w.queue_depth;
      g.sojourn.Merge(w.sojourn);
      // The global memory plane is the field-wise sum of the per-System
      // series (each carried by the first shard on its System).
      if (w.has_mem) {
        g.has_mem = true;
        g.mem_delta += w.mem_delta;
        g.mem_gauges += w.mem_gauges;
      }
    }
  }
}

ServeTimeline::SloSummary ServeTimeline::Slo() const {
  SloSummary slo;
  slo.windows = global_windows_.size();
  for (const ServeWindow& w : global_windows_) {
    if (w.completed == 0) continue;
    ++slo.windows_with_traffic;
    if (w.sojourn.Quantile(0.99) > cfg_.slo_p99_cycles) ++slo.violations;
  }
  slo.burn_rate = slo.windows_with_traffic
                      ? static_cast<double>(slo.violations) /
                            static_cast<double>(slo.windows_with_traffic)
                      : 0.0;
  return slo;
}

void ServeTimeline::SloSummary::WriteFields(JsonWriter& w) const {
  w.Key("violations").Value(violations);
  w.Key("windows").Value(windows);
  w.Key("windows_with_traffic").Value(windows_with_traffic);
  w.Key("burn_rate").Value(burn_rate);
}

void SojournTailsToJson(JsonWriter& w, const Histogram& sojourn) {
  for (const auto& [key, q] : {std::pair{"sojourn_p50", 0.50}, std::pair{"sojourn_p99", 0.99},
                               std::pair{"sojourn_p999", 0.999}}) {
    w.Key(key);
    if (sojourn.count() == 0) {
      w.Null();
    } else {
      w.Value(sojourn.Quantile(q));
    }
  }
}

void ServeTimeline::WindowToJson(JsonWriter& w, const ServeWindow& win, bool with_slo) const {
  w.BeginObject();
  win.WriteHeader(w);
  w.Key("completed").Value(win.completed);
  w.Key("admitted").Value(win.admitted);
  w.Key("shed").Value(win.shed);
  w.Key("queue_depth").Value(win.queue_depth);
  SojournTailsToJson(w, win.sojourn);
  if (with_slo && cfg_.slo_p99_cycles > 0) {
    w.Key("slo_violation")
        .Value(win.completed > 0 && win.sojourn.Quantile(0.99) > cfg_.slo_p99_cycles);
  }
  if (win.has_mem) {
    w.Key("mem").BeginObject();
    w.Key("imc_read_bytes").Value(win.mem_delta.imc_read_bytes);
    w.Key("imc_write_bytes").Value(win.mem_delta.imc_write_bytes);
    w.Key("media_read_bytes").Value(win.mem_delta.media_read_bytes);
    w.Key("media_write_bytes").Value(win.mem_delta.media_write_bytes);
    w.Key("wpq_stall_cycles").Value(win.mem_delta.wpq_stall_cycles);
    win.mem_gauges.WriteFields(w);
    w.EndObject();
  }
  w.EndObject();
}

void ServeTimeline::ToJson(JsonWriter& w) const {
  PMEMSIM_CHECK_MSG(finalized_, "serve timeline serialized before Finalize");
  w.BeginObject();
  w.Key("schema_version").Value(uint64_t{1});
  w.Key("config").BeginObject();
  w.Key("mix").Value(cfg_.mix);
  w.Key("loop").Value(cfg_.loop);
  w.Key("store").Value(cfg_.store);
  w.Key("engine").Value(cfg_.engine);
  w.Key("shards").Value(uint64_t{cfg_.shards});
  w.Key("interval_cycles").Value(cfg_.interval_cycles);
  w.Key("slo_p99_cycles").Value(cfg_.slo_p99_cycles);
  w.EndObject();
  w.Key("serve_start").Value(origin_);
  w.Key("end").Value(end_);
  w.Key("truncated").Value(truncated_);

  uint64_t completed = 0, admitted = 0, shed = 0;
  for (const auto& m : metrics_) {
    completed += m->total_completed();
    admitted += m->total_admitted();
    shed += m->total_shed();
  }
  w.Key("totals").BeginObject();
  w.Key("completed").Value(completed);
  w.Key("admitted").Value(admitted);
  w.Key("shed").Value(shed);
  w.EndObject();

  if (cfg_.slo_p99_cycles > 0) {
    w.Key("slo").BeginObject();
    Slo().WriteFields(w);
    w.EndObject();
  }

  w.Key("global").BeginObject();
  w.Key("windows").BeginArray();
  for (const ServeWindow& win : global_windows_) WindowToJson(w, win, /*with_slo=*/true);
  w.EndArray();
  w.EndObject();

  w.Key("shards").BeginArray();
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    w.BeginObject();
    w.Key("shard").Value(uint64_t{s});
    w.Key("windows").BeginArray();
    for (const ServeWindow& win : metrics_[s]->windows()) {
      WindowToJson(w, win, /*with_slo=*/false);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

std::string ServeTimeline::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.str();
}

std::string ServeTimeline::SpansToJson() const {
  // Columnar form: one array per field, rows aligned by position, shards
  // concatenated in index order — ~4x smaller than an object per span and
  // byte-stable across host parallelism by the same argument as the windows.
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Value(uint64_t{1});
  w.Key("ops").BeginArray();
  for (int i = 0; i < kServeOpCount; ++i) {
    w.Value(ServeOpName(static_cast<ServeOp>(i)));
  }
  w.EndArray();
  w.Key("stages").BeginArray();
  for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
    w.Value(AttributionCollector::StageName(static_cast<AttributionCollector::Stage>(s)));
  }
  w.EndArray();

  uint64_t dropped = 0;
  auto column = [&](const char* name, auto&& get) {
    w.Key(name).BeginArray();
    for (const auto& r : recorders_) {
      for (const RequestSpan& sp : r->spans()) w.Value(get(sp));
    }
    w.EndArray();
  };
  w.Key("spans").BeginObject();
  column("shard", [](const RequestSpan& s) { return uint64_t{s.shard}; });
  column("client", [](const RequestSpan& s) { return uint64_t{s.client}; });
  column("op", [](const RequestSpan& s) { return uint64_t{s.op}; });
  column("arrival", [](const RequestSpan& s) { return s.arrival; });
  column("admit", [](const RequestSpan& s) { return s.admit; });
  column("start", [](const RequestSpan& s) { return s.start; });
  column("end", [](const RequestSpan& s) { return s.end; });
  w.Key("stage_cycles").BeginArray();
  for (int st = 0; st < AttributionCollector::kStageCount; ++st) {
    w.BeginArray();
    for (const auto& r : recorders_) {
      for (const RequestSpan& sp : r->spans()) w.Value(sp.stages[st]);
    }
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();

  for (const auto& r : recorders_) dropped += r->dropped();
  w.Key("dropped").Value(dropped);
  w.EndObject();
  return w.str();
}

}  // namespace pmemsim
