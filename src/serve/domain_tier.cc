#include "src/serve/domain_tier.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/host_pool.h"
#include "src/trace/json.h"

namespace pmemsim {
namespace {

// How far an idle worker advances in eager (zero-lookahead) mode when its
// domain has no pending arrival but peers still hold requests in flight.
// Small enough to observe completions promptly, large enough not to dominate
// step counts.
constexpr Cycles kIdleQuantum = 256;

// The shared-System configuration has no dispatch hop.
ServeConfig WithoutDispatchHop(ServeConfig cfg) {
  cfg.dispatch_latency = 0;
  return cfg;
}

}  // namespace

const char* EngineName(bool partitioned) { return partitioned ? "partitioned" : "interleaved"; }

ServeTimeline::Config TimelineConfigFor(const ServeConfig& cfg, bool partitioned,
                                        Cycles interval_cycles, uint64_t slo_p99_cycles) {
  return {.mix = cfg.mix_name, .loop = LoopModeName(cfg.loop), .store = StoreName(cfg.store),
          .engine = EngineName(partitioned), .shards = cfg.shards,
          .interval_cycles = interval_cycles, .slo_p99_cycles = slo_p99_cycles};
}

ServeDomain::ServeDomain(System* system, const ServeConfig& cfg, uint32_t index,
                         std::vector<uint64_t> load_keys, uint64_t append_budget)
    : cfg_(cfg),
      index_(index),
      system_(system),
      queue_(cfg.queue_depth),
      load_keys_(std::move(load_keys)) {
  PMEMSIM_CHECK(cfg_.workers_per_shard > 0);
  workers_.resize(cfg_.workers_per_shard);
  for (uint32_t i = 0; i < cfg_.workers_per_shard; ++i) {
    workers_[i].ctx = &system_->CreateThread();
  }
  store_ = std::make_unique<ShardStore>(system_, cfg_.store, load_keys_.size(), append_budget,
                                        *workers_[0].ctx);
  owned_sorted_ = load_keys_;
  std::sort(owned_sorted_.begin(), owned_sorted_.end());
}

StepResult ServeDomain::LoadStep() {
  ThreadContext& loader = *workers_[0].ctx;
  if (loaded_ == load_keys_.size()) {
    load_end_ = loader.clock();
    return StepResult::kDone;
  }
  const uint64_t key = load_keys_[loaded_++];
  store_->Insert(loader, key, Mix64(key));
  if (loaded_ == load_keys_.size()) {
    store_->FlushPreload(loader);  // preload durability point before serving
  }
  return StepResult::kProgress;
}

void ServeDomain::RunLoad() {
  while (LoadStep() == StepResult::kProgress) {
  }
}

void ServeDomain::AppendLoadJob(std::vector<SimJob>* out) {
  out->push_back(SimJob{workers_[0].ctx, [this] { return LoadStep(); }});
}

void ServeDomain::SetObservability(ServeMetrics* metrics, SpanRecorder* spans,
                                   Sampler* mem_sampler) {
  metrics_ = metrics;
  span_recorder_ = spans;
  mem_sampler_ = mem_sampler;
}

void ServeDomain::BeginServe(Cycles t0, TierDispatcher* eager_dispatcher,
                             std::function<bool()> all_quiet) {
  eager_dispatcher_ = eager_dispatcher;
  all_quiet_ = std::move(all_quiet);
  if (metrics_ != nullptr) {
    metrics_->ObserveQueueDepth(t0, queue_.size());
  }
  for (Worker& wk : workers_) {
    wk.ctx->AdvanceTo(t0);
    wk.ctx->SetAttribution(&attribution_);
    // Phase boundary: the serve phase opens in the trace.
    wk.ctx->TraceMarker(kServePhaseMarker);
  }
  if (eager_dispatcher_ == nullptr) {
    jobs_.clear();
    for (Worker& wk : workers_) {
      jobs_.push_back(SimJob{wk.ctx, [this, &wk] { return WorkerStep(wk); }});
    }
    engine_ = std::make_unique<Scheduler>(&jobs_);
  }
}

void ServeDomain::Accept(const Request& r) { pending_.push(r); }

void ServeDomain::RunEpoch(Cycles epoch_end) {
  epoch_end_ = epoch_end;
  // The domain's private scheduler drives its System's mem-sampler: the
  // interval series observes this domain's minimum worker clock.
  engine_->RunUntil(epoch_end, mem_sampler_);
}

void ServeDomain::AppendEagerJobs(std::vector<SimJob>* out) {
  for (Worker& wk : workers_) {
    out->push_back(SimJob{wk.ctx, [this, &wk] { return WorkerStep(wk); }});
  }
}

bool ServeDomain::Drained() const {
  return pending_.empty() && queue_.empty() && in_flight_ == 0;
}

void ServeDomain::FinalizeServe() {
  for (Worker& wk : workers_) {
    wk.ctx->SetAttribution(nullptr);
  }
  stats_.offered = queue_.offered();
  stats_.rejected = queue_.rejected();
}

StepResult ServeDomain::WorkerStep(Worker& wk) {
  ThreadContext& ctx = *wk.ctx;
  if (wk.next >= wk.claimed.size()) {
    wk.claimed.clear();
    wk.next = 0;
    if (eager_dispatcher_ != nullptr) {
      // Zero lookahead: this step begins at the globally minimal clock
      // (lockstep invariant across ALL domains), so delivering every arrival
      // <= now here delivers open-loop arrivals in exact admission order.
      eager_dispatcher_->DeliverUpTo(ctx.clock() + 1);
      if (mem_sampler_ != nullptr) {
        // No private scheduler in eager mode; the global lockstep minimum is
        // this step's clock, so it is a valid (non-decreasing) observation
        // even when several domains drive one shared System's sampler.
        mem_sampler_->AdvanceTo(ctx.clock());
      }
    }
    CatchUpAdmissions(ctx.clock());
    const size_t n = queue_.ClaimBatch(cfg_.batch, &wk.claimed);
    in_flight_ += n;
    if (n > 0 && metrics_ != nullptr) {
      metrics_->ObserveQueueDepth(ctx.clock(), queue_.size());
    }
    if (n == 0) {
      if (eager_dispatcher_ != nullptr) {
        if (all_quiet_()) {
          return StepResult::kDone;
        }
        std::optional<Cycles> next = NextArrivalTime();
        const std::optional<Cycles> hint = eager_dispatcher_->NextArrivalHint();
        if (hint.has_value() && (!next.has_value() || *hint < *next)) {
          next = hint;
        }
        ctx.AdvanceTo(next.has_value() ? std::max(*next, ctx.clock() + 1)
                                       : ctx.clock() + kIdleQuantum);
        return StepResult::kProgress;
      }
      // Epoch mode: park at the next arrival or the window edge, whichever
      // comes first. Workers never retire — the coordinator decides when the
      // tier is drained. This is what keeps an idle domain from stalling the
      // barrier: its workers reach epoch_end in one cheap step each.
      std::optional<Cycles> next = NextArrivalTime();
      Cycles target = epoch_end_;
      if (next.has_value() && *next < target) {
        target = *next;
      }
      ctx.AdvanceTo(std::max(target, ctx.clock() + 1));
      return StepResult::kProgress;
    }
  }
  const Request r = wk.claimed[wk.next++];
  const Cycles start = ctx.clock();
  if (span_recorder_ != nullptr) {
    // Snapshot the attribution totals around this Execute; the delta is this
    // request's stage decomposition (one Execute is one uninterrupted step).
    for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
      span_stage_base_[s] = attribution_.stage_total(static_cast<AttributionCollector::Stage>(s));
    }
  }
  Execute(ctx, r);
  if (ctx.clock() == start) {
    ctx.AddCompute(1);  // scheduler contract: every step advances the clock
  }
  CompleteRequest(r, start, ctx.clock());
  return StepResult::kProgress;
}

void ServeDomain::CatchUpAdmissions(Cycles now) {
  bool folded = false;
  while (!pending_.empty() && pending_.top().arrival <= now) {
    const Request r = pending_.top();
    pending_.pop();
    folded = true;
    if (queue_.Offer(r, now)) {
      if (metrics_ != nullptr) {
        metrics_->RecordAdmission(now);
      }
      continue;
    }
    if (metrics_ != nullptr) {
      metrics_->RecordShed(now);
    }
    // Shed. Open loop: the arrival is dropped. Closed loop: the client
    // observes the shed at the folding worker's clock `now` — not the arrival
    // cycle — and backs off from there. The observation IS the cross-domain
    // signal, and `now < epoch_end` (workers only step below the window edge)
    // keeps the re-dispatch at now + think + D conservatively beyond the
    // epoch horizon.
    ReportToClient(now, r.client);
  }
  if (folded && metrics_ != nullptr) {
    metrics_->ObserveQueueDepth(now, queue_.size());
  }
}

void ServeDomain::Execute(ThreadContext& ctx, const Request& r) {
  uint64_t value = 0;
  switch (r.op) {
    case ServeOp::kRead:
      if (!store_->Get(ctx, r.key, &value)) {
        ++stats_.not_found;
      }
      break;
    case ServeOp::kUpdate:
      if (!store_->Update(ctx, r.key, Mix64(r.key + r.arrival))) {
        ++stats_.not_found;
      }
      break;
    case ServeOp::kInsert:
      store_->Insert(ctx, r.key, Mix64(r.key));
      break;
    case ServeOp::kScan:
      Scan(ctx, r.key, r.scan_len);
      break;
    case ServeOp::kRmw:
      if (!store_->Get(ctx, r.key, &value)) {
        ++stats_.not_found;
      }
      if (!store_->Update(ctx, r.key, value + 1)) {
        ++stats_.not_found;
      }
      break;
  }
}

void ServeDomain::Scan(ThreadContext& ctx, uint64_t from, uint32_t len) {
  if (store_->ordered()) {
    store_->TreeScan(ctx, from, len);
    return;
  }
  // Hash-shaped stores have no key order; emulate the range as `len` point
  // reads over the keys this domain owns (ascending from `from`, wrapping):
  // only owned keys exist in this shard, so consecutive global ids would
  // mostly miss.
  if (owned_sorted_.empty()) {
    return;
  }
  const size_t start =
      std::lower_bound(owned_sorted_.begin(), owned_sorted_.end(), from) - owned_sorted_.begin();
  uint64_t value = 0;
  for (uint32_t i = 0; i < len; ++i) {
    const uint64_t key = owned_sorted_[(start + i) % owned_sorted_.size()];
    if (!store_->Get(ctx, key, &value)) {
      ++stats_.not_found;
    }
  }
}

void ServeDomain::CompleteRequest(const Request& r, Cycles start, Cycles end) {
  stats_.RecordCompletion(r, start, end);
  PMEMSIM_CHECK(in_flight_ > 0);
  --in_flight_;
  if (metrics_ != nullptr) {
    metrics_->RecordCompletion(end, end - r.arrival);
  }
  if (span_recorder_ != nullptr) {
    Cycles deltas[AttributionCollector::kStageCount];
    for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
      deltas[s] = attribution_.stage_total(static_cast<AttributionCollector::Stage>(s)) -
                  span_stage_base_[s];
    }
    span_recorder_->Record(r.client, static_cast<uint8_t>(r.op), r.arrival, r.admit, start, end,
                           deltas);
  }
  ReportToClient(end, r.client);
}

void ServeDomain::ReportToClient(Cycles time, uint32_t client) {
  if (cfg_.loop != LoopMode::kClosed) {
    return;
  }
  if (eager_dispatcher_ != nullptr) {
    eager_dispatcher_->OnEvent(time, client);
  } else {
    events_.push_back(DomainEvent{time, client});
  }
}

std::optional<Cycles> ServeDomain::NextArrivalTime() const {
  return pending_.empty() ? std::nullopt : std::optional<Cycles>(pending_.top().arrival);
}

DomainTier::DomainTier(const PlatformConfig& platform, uint32_t dimms_per_domain,
                       const ServeConfig& cfg)
    : cfg_(cfg), dispatcher_(cfg_) {
  AddDomains(&platform, dimms_per_domain);
}

DomainTier::DomainTier(System* system, const ServeConfig& cfg)
    : cfg_(WithoutDispatchHop(cfg)), dispatcher_(cfg_), shared_system_(system) {
  AddDomains(nullptr, 0);
}

DomainTier::~DomainTier() {
  if (timeline_ == nullptr) {
    return;
  }
  timeline_->FlushTruncated();  // no-op after Run's normal Finalize
  for (auto& domain : domains_) {
    domain->system().SetExtraGaugeSource({});
  }
}

void DomainTier::AddDomains(const PlatformConfig* platform, uint32_t dimms_per_domain) {
  PMEMSIM_CHECK(cfg_.shards > 0 && cfg_.workers_per_shard > 0);
  std::vector<std::vector<uint64_t>> keys = dispatcher_.PartitionLoadKeys();
  const uint64_t append_budget = dispatcher_.budget();
  domains_.reserve(cfg_.shards);
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    System* system = shared_system_;
    if (system == nullptr) {
      systems_.push_back(std::make_unique<System>(*platform, dimms_per_domain));
      system = systems_.back().get();
    }
    domains_.push_back(
        std::make_unique<ServeDomain>(system, cfg_, s, std::move(keys[s]), append_budget));
  }
}

void DomainTier::Run() {
  PMEMSIM_CHECK_MSG(!ran_, "DomainTier::Run is one-shot");
  ran_ = true;
  dispatcher_.SetDeliverFn(
      [this](uint32_t shard, const Request& r) { domains_[shard]->Accept(r); });
  if (cfg_.dispatch_latency == 0) {
    RunEager();
  } else {
    RunEpochLoop();
  }
  for (auto& domain : domains_) {
    domain->FinalizeServe();
  }
  if (timeline_ != nullptr) {
    for (auto& domain : domains_) {
      domain->system().SetExtraGaugeSource({});
      domain->SetObservability(nullptr, nullptr, nullptr);
    }
    // Every domain finalizes at the same engine end, so the per-shard window
    // lists are congruent whatever each domain's local drain time was.
    timeline_->Finalize(serve_end_);
  }
}

void DomainTier::BeginTimeline() {
  if (timeline_ == nullptr) {
    return;
  }
  timeline_->Begin(serve_start_);
  Sampler* sampler = nullptr;
  for (uint32_t d = 0; d < cfg_.shards; ++d) {
    ServeMetrics* metrics = timeline_->shard(d);
    if (d == 0 || shared_system_ == nullptr) {
      // One memory-plane series and one serve-queue-depth gauge per System,
      // carried by the first domain on it.
      System* system = &domains_[d]->system();
      const size_t end = shared_system_ != nullptr ? domains_.size() : d + 1;
      sampler = metrics->AttachMemSampler(
          &system->counters(), [system](Cycles now) { return system->ReadGauges(now); });
      system->SetExtraGaugeSource([this, d, end](Cycles, SampleGauges* g) {
        for (size_t i = d; i < end; ++i) {
          g->serve_queue_depth += domains_[i]->queue().size();
        }
      });
    }
    domains_[d]->SetObservability(metrics, timeline_->spans(d), sampler);
  }
}

void DomainTier::RunEpochLoop() {
  const Cycles window = cfg_.dispatch_latency;
  const uint32_t threads =
      std::min<uint32_t>(std::max<uint32_t>(cfg_.engine_threads, 1), cfg_.shards);
  HostPool pool(threads);

  // Load phase: domains are fully independent (each on its own System), so
  // they load concurrently with no epoch discipline at all.
  pool.Run([this, threads](uint32_t w) {
    for (size_t d = w; d < domains_.size(); d += threads) {
      domains_[d]->RunLoad();
    }
  });
  load_end_ = 0;
  for (auto& domain : domains_) {
    load_end_ = std::max(load_end_, domain->load_end());
  }
  serve_start_ = load_end_;

  BeginTimeline();
  for (auto& domain : domains_) {
    domain->BeginServe(serve_start_, nullptr, nullptr);
  }
  dispatcher_.StartServing(serve_start_);

  // Conservative epoch loop (see domain_tier.h). The first window is a warm-up
  // bubble — every first arrival lands at >= t0 + D — which costs one barrier.
  std::vector<DomainEvent> merged;
  Cycles epoch = serve_start_;
  for (;;) {
    const Cycles epoch_end = epoch + window;
    dispatcher_.DeliverUpTo(epoch_end);
    pool.Run([this, threads, epoch_end](uint32_t w) {
      for (size_t d = w; d < domains_.size(); d += threads) {
        domains_[d]->RunEpoch(epoch_end);
      }
    });
    merged.clear();
    for (auto& domain : domains_) {
      std::vector<DomainEvent>& events = domain->events();
      merged.insert(merged.end(), events.begin(), events.end());
      events.clear();
    }
    dispatcher_.ProcessEvents(&merged);
    if (dispatcher_.Exhausted() && AllDrained()) {
      serve_end_ = epoch_end;  // the timeline closes at the final barrier
      return;
    }
    epoch = epoch_end;
  }
}

void DomainTier::RunEager() {
  // Zero lookahead: no window to run domains concurrently in, so preload and
  // serving are each one combined lockstep run over every domain's threads.
  // Loaders sharing a System thereby reach its memory model in clock order;
  // while serving, global clock order plays the coordinator and the
  // dispatcher is pumped synchronously at admission time.
  std::vector<SimJob> jobs;
  jobs.reserve(static_cast<size_t>(cfg_.shards) * cfg_.workers_per_shard);
  for (auto& domain : domains_) {
    domain->AppendLoadJob(&jobs);
  }
  Scheduler::Run(jobs);
  load_end_ = 0;
  for (auto& domain : domains_) {
    load_end_ = std::max(load_end_, domain->load_end());
  }
  serve_start_ = load_end_;

  const std::function<bool()> all_quiet = [this] {
    return dispatcher_.Exhausted() && AllDrained();
  };
  BeginTimeline();
  for (auto& domain : domains_) {
    domain->BeginServe(serve_start_, &dispatcher_, all_quiet);
  }
  dispatcher_.StartServing(serve_start_);

  jobs.clear();
  for (auto& domain : domains_) {
    domain->AppendEagerJobs(&jobs);
  }
  serve_end_ = Scheduler::Run(jobs);
}

bool DomainTier::AllDrained() const {
  for (const auto& domain : domains_) {
    if (!domain->Drained()) {
      return false;
    }
  }
  return true;
}

Cycles DomainTier::end_cycle() const {
  Cycles end = serve_start_;
  for (const auto& domain : domains_) {
    end = std::max(end, domain->stats().last_completion);
  }
  return end;
}

ServiceStats DomainTier::GlobalStats() const {
  ServiceStats global;
  for (const auto& domain : domains_) {
    global.Merge(domain->stats());
  }
  return global;
}

void DomainTier::ToJson(JsonWriter& w) const {
  const double ghz = domains_.front()->system().config().cpu_ghz;
  w.BeginObject();
  w.Key("config").BeginObject();
  w.Key("store").Value(StoreName(cfg_.store));
  w.Key("loop").Value(LoopModeName(cfg_.loop));
  w.Key("mix").Value(cfg_.mix_name);
  w.Key("shards").Value(static_cast<uint64_t>(cfg_.shards));
  w.Key("workers_per_shard").Value(static_cast<uint64_t>(cfg_.workers_per_shard));
  w.Key("queue_depth").Value(cfg_.queue_depth);
  w.Key("batch").Value(cfg_.batch);
  w.Key("clients").Value(static_cast<uint64_t>(cfg_.clients));
  w.Key("think_cycles").Value(cfg_.think_cycles);
  w.Key("interarrival_cycles").Value(cfg_.interarrival_cycles);
  w.Key("ops").Value(cfg_.ops);
  w.Key("keys").Value(cfg_.keys);
  w.Key("theta").Value(cfg_.theta);
  w.Key("scan_len").Value(static_cast<uint64_t>(cfg_.scan_len));
  w.Key("seed").Value(cfg_.seed);
  // Engine identity — but deliberately NOT engine_threads: the report must
  // byte-compare across host thread counts (the determinism gate).
  w.Key("engine").Value(EngineName(shared_system_ == nullptr));
  w.Key("dispatch_latency").Value(static_cast<uint64_t>(cfg_.dispatch_latency));
  w.EndObject();
  w.Key("load_cycles").Value(static_cast<uint64_t>(load_end_));
  w.Key("serve_start").Value(static_cast<uint64_t>(serve_start_));
  w.Key("end_cycle").Value(static_cast<uint64_t>(end_cycle()));
  w.Key("global");
  GlobalStats().ToJson(w, ghz, serve_start_);
  w.Key("shards").BeginArray();
  for (const auto& domain : domains_) {
    w.BeginObject();
    w.Key("shard").Value(static_cast<uint64_t>(domain->index()));
    w.Key("queue").BeginObject();
    w.Key("depth").Value(static_cast<uint64_t>(domain->queue().depth()));
    w.Key("max_occupancy").Value(domain->queue().max_occupancy());
    w.EndObject();
    w.Key("stats");
    domain->stats().ToJson(w, ghz, serve_start_);
    w.Key("attribution");
    domain->attribution().ToJson(w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

std::string DomainTier::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.str();
}

}  // namespace pmemsim
