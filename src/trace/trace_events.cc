#include "src/trace/trace_events.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/trace/json.h"

namespace pmemsim {

namespace {
// Abort hook: when a CHECK fails outside any capture scope and the process is
// about to abort, flush whatever events were buffered so the partial trace
// reaches disk instead of dying with the run.
void FlushTraceOnAbort() {
  TraceEmitter& trace = TraceEmitter::Global();
  if (trace.enabled()) {
    trace.Flush();
  }
}
}  // namespace

TraceEmitter& TraceEmitter::Global() {
  static TraceEmitter instance;
  return instance;
}

void TraceEmitter::Enable(const std::string& path) {
  // Installed for the process lifetime; the hook no-ops while disabled.
  SetCheckAbortHook(&FlushTraceOnAbort);
  std::lock_guard<std::mutex> lock(mu_);
  path_ = path;
  enabled_.store(true, std::memory_order_relaxed);
  events_.clear();
  dropped_ = 0;
  if (tracks_.empty()) {
    tracks_.push_back("sim");
  }
}

bool TraceEmitter::Disable() {
  std::lock_guard<std::mutex> lock(mu_);
  const bool ok = enabled_.load(std::memory_order_relaxed) ? FlushLocked() : true;
  enabled_.store(false, std::memory_order_relaxed);
  events_.clear();
  return ok;
}

int TraceEmitter::RegisterTrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tracks_.empty()) {
    tracks_.push_back("sim");
  }
  // Benches construct a fresh System per data point; each re-registers its
  // DIMM tracks. Suffix repeats so the viewer rows stay distinguishable.
  size_t repeats = 0;
  for (const std::string& t : tracks_) {
    if (t == name || t.rfind(name + "#", 0) == 0) {
      ++repeats;
    }
  }
  tracks_.push_back(repeats == 0 ? name : name + "#" + std::to_string(repeats));
  return static_cast<int>(tracks_.size()) - 1;
}

void TraceEmitter::Push(Event e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void TraceEmitter::Instant(int track, const std::string& name, Cycles ts) {
  Push(Event{'i', track, name, ts, /*has_arg=*/false, /*arg_name=*/{}, /*arg_value=*/0.0});
}

void TraceEmitter::Instant(int track, const std::string& name, Cycles ts,
                           const std::string& arg_name, double arg_value) {
  Push(Event{'i', track, name, ts, /*has_arg=*/true, arg_name, arg_value});
}

void TraceEmitter::CounterEvent(int track, const std::string& name, Cycles ts, double value) {
  Push(Event{'C', track, name, ts, /*has_arg=*/true, "value", value});
}

bool TraceEmitter::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

bool TraceEmitter::FlushLocked() {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ns");
  w.Key("traceEvents").BeginArray();
  // Track-name metadata events so the viewer labels each row.
  for (size_t i = 0; i < tracks_.size(); ++i) {
    w.BeginObject();
    w.Key("ph").Value("M");
    w.Key("name").Value("thread_name");
    w.Key("pid").Value(0);
    w.Key("tid").Value(static_cast<uint64_t>(i));
    w.Key("args").BeginObject().Key("name").Value(tracks_[i]).EndObject();
    w.EndObject();
  }
  for (const Event& e : events_) {
    w.BeginObject();
    w.Key("ph").Value(std::string(1, e.phase));
    w.Key("name").Value(e.name);
    w.Key("cat").Value("pmemsim");
    w.Key("ts").Value(static_cast<uint64_t>(e.ts));
    w.Key("pid").Value(0);
    w.Key("tid").Value(e.track);
    if (e.phase == 'i') {
      w.Key("s").Value("t");  // thread-scoped instant
    }
    if (e.has_arg) {
      w.Key("args").BeginObject().Key(e.arg_name).Value(e.arg_value).EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  if (dropped_ > 0) {
    w.Key("pmemsim_dropped_events").Value(dropped_);
  }
  w.EndObject();

  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string& text = w.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace pmemsim
