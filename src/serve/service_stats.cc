#include "src/serve/service_stats.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/trace/json.h"
#include "src/trace/serve_metrics.h"

namespace pmemsim {

void ServiceStats::RecordCompletion(const Request& r, Cycles start, Cycles end) {
  PMEMSIM_CHECK(r.arrival <= start && start <= end);
  const Cycles wait_c = start - r.arrival;
  const Cycles service_c = end - start;
  const Cycles sojourn_c = end - r.arrival;
  ++completed;
  ++op_counts[static_cast<size_t>(r.op)];
  wait_total += wait_c;
  service_total += service_c;
  sojourn_total += sojourn_c;
  wait.Add(wait_c);
  service.Add(service_c);
  sojourn.Add(sojourn_c);
  last_completion = std::max(last_completion, end);
}

void ServiceStats::Merge(const ServiceStats& other) {
  completed += other.completed;
  for (int i = 0; i < kServeOpCount; ++i) {
    op_counts[i] += other.op_counts[i];
  }
  not_found += other.not_found;
  sojourn_total += other.sojourn_total;
  wait_total += other.wait_total;
  service_total += other.service_total;
  sojourn.Merge(other.sojourn);
  wait.Merge(other.wait);
  service.Merge(other.service);
  last_completion = std::max(last_completion, other.last_completion);
  offered += other.offered;
  rejected += other.rejected;
}

double ServiceStats::OpsPerSec(double cpu_ghz, Cycles serve_start) const {
  if (completed == 0 || last_completion <= serve_start) {
    return 0.0;
  }
  const double seconds =
      static_cast<double>(last_completion - serve_start) / (cpu_ghz * 1e9);
  return static_cast<double>(completed) / seconds;
}

void ServiceStats::ToJson(JsonWriter& w, double cpu_ghz, Cycles serve_start) const {
  w.BeginObject();
  w.Key("offered").Value(offered);
  w.Key("rejected").Value(rejected);
  w.Key("completed").Value(completed);
  w.Key("not_found").Value(not_found);
  w.Key("ops").BeginObject();
  for (int i = 0; i < kServeOpCount; ++i) {
    w.Key(ServeOpName(static_cast<ServeOp>(i))).Value(op_counts[i]);
  }
  w.EndObject();
  w.Key("ops_per_sec").Value(OpsPerSec(cpu_ghz, serve_start));
  w.Key("last_completion").Value(static_cast<uint64_t>(last_completion));
  SojournTailsToJson(w, sojourn);
  w.Key("latency").BeginObject();
  w.Key("sojourn");
  sojourn.ToJson(w);
  w.Key("queue_wait");
  wait.ToJson(w);
  w.Key("service");
  service.ToJson(w);
  w.EndObject();
  w.EndObject();
}

}  // namespace pmemsim
