// DomainTier: the serving engine. A deployment is N shard *domains*; each
// domain is one shard: its bounded admission queue, stats, attribution
// collector, store (ShardStore), worker ThreadContexts and pending-arrival
// heap. The client tier (TierDispatcher) routes every request to the domain
// that owns its key, with a modelled dispatch latency of
// D = cfg.dispatch_latency cycles. Where the domains' memory lives is the one
// configuration axis:
//
//  * shared System (ServiceTier, pmemsim_serve's default): every domain runs
//    on one borrowed System, so all shards contend for the same iMC, DIMM
//    buffers and AIT — the shared-DIMM deployment. There is no dispatch hop
//    (D = 0) and the domains run in lockstep;
//  * private Systems (DomainTier(platform, dimms, cfg), --engine_threads):
//    each domain owns a System and shares nothing with its peers, which lets
//    it advance on its own host thread under the epoch loop below.
//
// Conservative epoch execution (private Systems, D > 0):
//   Because every cross-domain message issued at time t arrives at t + D at
//   the earliest, a domain advancing inside the window [E, E + D) can never
//   receive an arrival it has not already been handed: all deliveries due
//   before E + D are staged at the preceding barrier. So the engine runs
//
//     loop:  deliver arrivals < epoch_end       (coordinator)
//            every domain: RunUntil(epoch_end)  (a HostPool of
//                                                cfg.engine_threads workers,
//                                                no shared state)
//            barrier: fold domain events sorted by (time, client),
//                     issue closed-loop re-dispatches  (coordinator)
//
//   Domain d always runs on pool worker d mod T, T = min(engine_threads,
//   shards), the coordinator being worker 0 (src/common/host_pool.h); at
//   T = 1 the pool spawns no thread and the coordinator runs every domain.
//
//   Within a domain the scheduler preserves the exact (clock, job-index)
//   lockstep order; across domains nothing is shared; and every coordinator
//   fold happens in a deterministic sorted order. Results are therefore
//   byte-identical at any --engine_threads — that is the determinism
//   contract, gated in CI exactly like --jobs.
//
// Lockstep execution (D == 0, always on a shared System): there is no window
// to run domains concurrently in, so preload and serving are each one
// combined Scheduler::Run over every domain's workers (engine_threads is
// ignored). Global clock order plays the coordinator: loaders and workers
// reach a shared memory model in clock order, and the dispatcher is pumped
// synchronously at admission time.
//
// Stats merge is order-independent: every per-domain counter is an integer
// sum or a histogram bucket count, merged by addition on the coordinator in
// fixed domain-index order (see DESIGN.md §10).

#ifndef SRC_SERVE_DOMAIN_TIER_H_
#define SRC_SERVE_DOMAIN_TIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/core/system.h"
#include "src/cpu/scheduler.h"
#include "src/cpu/thread_context.h"
#include "src/serve/dispatch.h"
#include "src/serve/request_queue.h"
#include "src/serve/service_stats.h"
#include "src/serve/shard.h"
#include "src/trace/attribution.h"
#include "src/trace/sampler.h"
#include "src/trace/serve_metrics.h"
#include "src/trace/span.h"

namespace pmemsim {

class JsonWriter;

// "partitioned" (a private System per shard domain) or "interleaved" (every
// domain on one shared System): the engine name in the serve reports.
const char* EngineName(bool partitioned);

// The timeline config of one serve point (slo_p99_cycles 0 = monitor off).
ServeTimeline::Config TimelineConfigFor(const ServeConfig& cfg, bool partitioned,
                                        Cycles interval_cycles, uint64_t slo_p99_cycles = 0);

// One shard domain: the serving state of exactly one shard on a System it
// may share with its peers. All methods are called either from the
// coordinator between epochs or from the single host thread advancing this
// domain — never concurrently.
class ServeDomain {
 public:
  // `load_keys` is this domain's slice of the global preload key space
  // (TierDispatcher::PartitionLoadKeys); `append_budget` sizes append-only
  // stores for the tier-wide op budget (any op can route anywhere). The
  // store is built on `system`, timed on the domain's first worker.
  ServeDomain(System* system, const ServeConfig& cfg, uint32_t index,
              std::vector<uint64_t> load_keys, uint64_t append_budget);

  // Preloads one owned key on the first worker (the last step also flushes
  // the store); kDone once every key is in. RunLoad loops it to completion;
  // AppendLoadJob hands it to a combined lockstep preload.
  StepResult LoadStep();
  void RunLoad();
  void AppendLoadJob(std::vector<SimJob>* out);
  Cycles load_end() const { return load_end_; }

  // Aligns workers to the common serve origin t0, installs attribution,
  // opens the queue's serve accounting phase, and prepares the engine:
  // epoch mode (eager_dispatcher == nullptr) builds this domain's own
  // Scheduler; eager mode records the dispatcher to pump synchronously and
  // the tier-wide quiescence predicate that retires idle workers.
  void BeginServe(Cycles t0, TierDispatcher* eager_dispatcher, std::function<bool()> all_quiet);

  // Installs (or clears, with nullptrs) the observability sinks for the
  // serve phase. Pay-for-use: with none installed, the hot path costs one
  // pointer test per event. Install before BeginServe (which emits the
  // opening queue-depth observation). `mem_sampler` is the memory-plane
  // series of this domain's System; the domain drives it from its private
  // scheduler (epoch mode) or from its workers' admission steps (eager mode).
  void SetObservability(ServeMetrics* metrics, SpanRecorder* spans, Sampler* mem_sampler);

  // Delivery sink for the dispatcher (arrival times may be far future; the
  // domain admits them when its clock gets there).
  void Accept(const Request& r);

  // Epoch mode: advances this domain's workers until every one is parked at
  // clock >= epoch_end. Runs on one host thread; touches only domain state.
  void RunEpoch(Cycles epoch_end);

  // The epoch's cross-domain event log (closed loop), drained at the barrier.
  std::vector<DomainEvent>& events() { return events_; }

  // Eager mode: appends one SimJob per worker for the combined lockstep run.
  void AppendEagerJobs(std::vector<SimJob>* out);

  // No pending arrival, empty queue, nothing in flight.
  bool Drained() const;

  // Clears attribution hooks and copies queue counters into stats().
  void FinalizeServe();

  uint32_t index() const { return index_; }
  System& system() { return *system_; }
  const RequestQueue& queue() const { return queue_; }
  const ServiceStats& stats() const { return stats_; }
  AttributionCollector& attribution() { return attribution_; }

 private:
  struct Worker {
    ThreadContext* ctx = nullptr;
    std::vector<Request> claimed;
    size_t next = 0;
  };
  struct ArrivalOrder {
    bool operator()(const Request& a, const Request& b) const {
      return a.arrival != b.arrival ? a.arrival > b.arrival : a.client > b.client;
    }
  };

  StepResult WorkerStep(Worker& wk);
  void CatchUpAdmissions(Cycles now);
  void Execute(ThreadContext& ctx, const Request& r);
  void CompleteRequest(const Request& r, Cycles start, Cycles end);
  // Closed loop: client `client`'s request resolved (completed or shed) at
  // `time`. Eager mode folds it into the dispatcher now; epoch mode stages
  // it for the barrier.
  void ReportToClient(Cycles time, uint32_t client);
  void Scan(ThreadContext& ctx, uint64_t from, uint32_t len);
  std::optional<Cycles> NextArrivalTime() const;

  const ServeConfig& cfg_;
  uint32_t index_;
  System* system_;  // not owned
  RequestQueue queue_;
  ServiceStats stats_;
  AttributionCollector attribution_;
  ServeMetrics* metrics_ = nullptr;        // not owned; null = observability off
  SpanRecorder* span_recorder_ = nullptr;  // not owned
  Sampler* mem_sampler_ = nullptr;         // not owned
  Cycles span_stage_base_[AttributionCollector::kStageCount] = {};
  std::vector<Worker> workers_;
  std::unique_ptr<ShardStore> store_;
  std::vector<uint64_t> load_keys_;
  size_t loaded_ = 0;
  std::vector<uint64_t> owned_sorted_;  // hash-store scan emulation order

  std::priority_queue<Request, std::vector<Request>, ArrivalOrder> pending_;
  std::vector<DomainEvent> events_;
  std::vector<SimJob> jobs_;
  std::unique_ptr<Scheduler> engine_;
  TierDispatcher* eager_dispatcher_ = nullptr;  // non-null <=> eager mode
  std::function<bool()> all_quiet_;
  Cycles load_end_ = 0;
  Cycles epoch_end_ = 0;
  uint64_t in_flight_ = 0;
};

class DomainTier {
 public:
  // Private Systems: one System per shard domain, each with
  // `dimms_per_domain` Optane DIMMs.
  DomainTier(const PlatformConfig& platform, uint32_t dimms_per_domain, const ServeConfig& cfg);
  // Closes an attached timeline that a failed Run left open (truncated), and
  // detaches the queue gauges, while the Systems and queues they read live.
  ~DomainTier();
  DomainTier(const DomainTier&) = delete;
  DomainTier& operator=(const DomainTier&) = delete;

  // Attaches (before Run) the serve-phase observability sink: per-domain
  // windowed metrics + spans, one memory-plane sampler per distinct System
  // (carried by the first domain on it; the global timeline view is the
  // field-wise sum), and the serve-queue-depth gauge on each System's
  // ReadGauges. Timeline Begin/Finalize happen on the coordinator at
  // serve_start_ and the engine's final cycle. Pass nullptr (default) for
  // zero-cost serving.
  void AttachTimeline(ServeTimeline* timeline) { timeline_ = timeline; }

  // Load then serve to completion. One-shot.
  void Run();

  Cycles load_end() const { return load_end_; }
  Cycles serve_start() const { return serve_start_; }
  Cycles end_cycle() const;

  const ServeConfig& config() const { return cfg_; }
  const std::vector<std::unique_ptr<ServeDomain>>& domains() const { return domains_; }
  ServiceStats GlobalStats() const;  // merged in domain-index order

  // scripts/check_serve.py schema. config.engine names the memory
  // configuration ("interleaved" on a shared System, "partitioned" on
  // private ones) next to config.dispatch_latency. Deliberately excludes
  // engine_threads: the report must byte-compare across thread counts.
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

 protected:
  // Shared System: every shard domain on `system` (not owned), lockstep with
  // no dispatch hop (cfg.dispatch_latency is taken as 0). See ServiceTier.
  DomainTier(System* system, const ServeConfig& cfg);

 private:
  void AddDomains(const PlatformConfig* platform, uint32_t dimms_per_domain);
  void RunEpochLoop();
  void RunEager();
  void BeginTimeline();
  bool AllDrained() const;

  ServeConfig cfg_;
  TierDispatcher dispatcher_;
  System* shared_system_ = nullptr;              // not owned; null = private Systems
  std::vector<std::unique_ptr<System>> systems_;  // private Systems, one per domain
  std::vector<std::unique_ptr<ServeDomain>> domains_;
  ServeTimeline* timeline_ = nullptr;  // not owned
  Cycles load_end_ = 0;
  Cycles serve_start_ = 0;
  Cycles serve_end_ = 0;
  bool ran_ = false;
};

}  // namespace pmemsim

#endif  // SRC_SERVE_DOMAIN_TIER_H_
