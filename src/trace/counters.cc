#include "src/trace/counters.h"

#include <cstdio>

#include "src/trace/json.h"
#include "src/trace/registry.h"

namespace pmemsim {

namespace {
// Applies `op(lhs_field, rhs_field)` across every counter field, keeping the
// subtraction/addition code in one place so new fields can't be missed in one
// of the operators.
template <typename Op>
void ForEachFieldPair(Counters& lhs, const Counters& rhs, Op op) {
#define PMEMSIM_PAIR_FIELD(name) op(lhs.name, rhs.name);
  PMEMSIM_COUNTER_FIELDS(PMEMSIM_PAIR_FIELD)
#undef PMEMSIM_PAIR_FIELD
}
}  // namespace

Counters::Counters(const Counters& other) {
  ForEachFieldPair(*this, other, [](uint64_t& a, const uint64_t& b) { a = b; });
}

Counters& Counters::operator=(const Counters& other) {
  ForEachFieldPair(*this, other, [](uint64_t& a, const uint64_t& b) { a = b; });
  return *this;
}

Counters Counters::operator-(const Counters& rhs) const {
  Counters out = *this;
  ForEachFieldPair(out, rhs, [](uint64_t& a, const uint64_t& b) { a -= b; });
  return out;
}

Counters& Counters::operator+=(const Counters& rhs) {
  ForEachFieldPair(*this, rhs, [](uint64_t& a, const uint64_t& b) { a += b; });
  return *this;
}

bool Counters::operator==(const Counters& rhs) const {
  bool equal = true;
  ForEachFieldPair(const_cast<Counters&>(*this), rhs,
                   [&equal](const uint64_t& a, const uint64_t& b) { equal = equal && a == b; });
  return equal;
}

void Counters::BindAggregate(const CounterRegistry* registry) { aggregate_source_ = registry; }

void Counters::Sync() const {
  if (aggregate_source_ == nullptr) {
    return;
  }
  // Logically const: re-materializes the cached sum over scopes.
  aggregate_source_->AggregateInto(const_cast<Counters*>(this));
}

std::string Counters::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "imc r/w: %llu/%llu B, media r/w: %llu/%llu B (RA=%.2f WA=%.2f), "
                "rdbuf h/m: %llu/%llu, wrbuf h/m/e: %llu/%llu/%llu, ait h/m: %llu/%llu",
                static_cast<unsigned long long>(imc_read_bytes),
                static_cast<unsigned long long>(imc_write_bytes),
                static_cast<unsigned long long>(media_read_bytes),
                static_cast<unsigned long long>(media_write_bytes), ReadAmplification(),
                WriteAmplification(), static_cast<unsigned long long>(read_buffer_hits),
                static_cast<unsigned long long>(read_buffer_misses),
                static_cast<unsigned long long>(write_buffer_hits),
                static_cast<unsigned long long>(write_buffer_misses),
                static_cast<unsigned long long>(write_buffer_evictions),
                static_cast<unsigned long long>(ait_hits),
                static_cast<unsigned long long>(ait_misses));
  return buf;
}

void Counters::ToJson(JsonWriter& w) const {
  w.BeginObject();
  ForEachCounterField(*this, [&w](const char* name, uint64_t value) {
    w.Key(name).Value(value);
  });
  w.Key("derived").BeginObject();
  w.Key("write_amplification").Value(WriteAmplification());
  w.Key("read_amplification").Value(ReadAmplification());
  w.Key("write_buffer_hit_ratio").Value(WriteBufferHitRatio());
  w.Key("read_buffer_hit_ratio").Value(ReadBufferHitRatio());
  w.EndObject();
  w.EndObject();
}

std::string Counters::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.str();
}

}  // namespace pmemsim
