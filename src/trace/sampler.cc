#include "src/trace/sampler.h"

#include "src/common/check.h"
#include "src/trace/json.h"

namespace pmemsim {

SampleGauges& SampleGauges::operator+=(const SampleGauges& rhs) {
#define PMEMSIM_ADD_GAUGE(type, name) name += rhs.name;
  PMEMSIM_GAUGE_FIELDS(PMEMSIM_ADD_GAUGE)
#undef PMEMSIM_ADD_GAUGE
  return *this;
}

void SampleGauges::WriteFields(JsonWriter& w) const {
#define PMEMSIM_WRITE_GAUGE(type, name) w.Key(#name).Value(name);
  PMEMSIM_GAUGE_FIELDS(PMEMSIM_WRITE_GAUGE)
#undef PMEMSIM_WRITE_GAUGE
}

void WindowHeader::WriteHeader(JsonWriter& w) const {
  w.Key("index").Value(index);
  w.Key("t_begin").Value(t_begin);
  w.Key("t_end").Value(t_end);
  w.Key("partial").Value(partial);
}

Sampler::Sampler(const Counters* counters, Cycles interval_cycles, Cycles origin)
    : counters_(counters), interval_(interval_cycles), delta_(counters) {
  PMEMSIM_CHECK(counters != nullptr);
  PMEMSIM_CHECK_MSG(interval_cycles > 0, "sample interval must be positive");
  last_boundary_ = origin;
  next_boundary_ = origin + interval_;
}

void Sampler::Emit(Cycles t_end, bool partial) {
  if (samples_.size() >= kMaxSamples) {
    ++dropped_;
    // The delta still rebases so later samples (if the cap is ever raised)
    // and SumOfDeltas stay consistent with what was kept: dropped intervals
    // are simply missing from the partition, which the owner can detect via
    // dropped_samples().
    delta_.Rebase();
    last_boundary_ = t_end;
    ++index_;
    return;
  }
  Sample s;
  s.index = index_++;
  s.t_begin = last_boundary_;
  s.t_end = t_end;
  s.partial = partial;
  s.delta = delta_.Delta();
  delta_.Rebase();
  if (gauge_fn_) {
    s.gauges = gauge_fn_(t_end);
  }
  samples_.push_back(s);
  if (on_sample_) {
    on_sample_(samples_.back());
  }
  last_boundary_ = t_end;
}

void Sampler::AdvanceTo(Cycles now) {
  while (now >= next_boundary_) {
    Emit(next_boundary_, /*partial=*/false);
    next_boundary_ += interval_;
  }
}

void Sampler::Finalize(Cycles end) {
  PMEMSIM_CHECK_MSG(!finalized_, "Sampler::Finalize called twice");
  AdvanceTo(end);
  // Close the open interval if it holds any time or residual counter deltas
  // (events can land after the last AdvanceTo observation).
  const Counters residual = delta_.Delta();
  const Counters zero;
  if (end > last_boundary_ || residual != zero) {
    Emit(end > last_boundary_ ? end : last_boundary_, /*partial=*/true);
  }
  finalized_ = true;
}

Counters Sampler::SumOfDeltas() const {
  Counters sum;
  for (const Sample& s : samples_) {
    sum += s.delta;
  }
  return sum;
}

void Sampler::ToJson(JsonWriter& w) const {
  w.BeginArray();
  for (const Sample& s : samples_) {
    w.BeginObject();
    s.WriteHeader(w);
    w.Key("delta");
    s.delta.ToJson(w);
    w.Key("gauges").BeginObject();
    s.gauges.WriteFields(w);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
}

std::string Sampler::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.str();
}

}  // namespace pmemsim
