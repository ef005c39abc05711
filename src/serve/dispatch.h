// TierDispatcher: the client population and front-end router of the serving
// engine (DomainTier).
//
// Every shard is a domain; the only cross-domain interaction is the client
// tier dispatching a request to the shard that owns its key. The dispatcher
// owns that tier:
//
//  * routing is by key hash — Route(key) = Mix64(key ^ salt) % shards — over
//    one global key space of cfg.keys * cfg.shards preloaded keys, so every
//    request's destination is a pure function of its content;
//  * each dispatched request takes cfg.dispatch_latency cycles (D) to reach
//    its shard: a request issued at t becomes admission-eligible at t + D.
//    D is the minimum cross-domain interaction latency, which makes it the
//    conservative epoch window (see src/serve/domain_tier.h);
//  * all stochastic draws (op mix, key skew, think times, Poisson arrivals,
//    insert-key allocation) live in single global streams consumed on the
//    coordinator thread only, in a deterministic order: open-loop arrivals in
//    generation order, closed-loop client feedback in (event time, client)
//    order at each epoch barrier. Results are therefore independent of how
//    many host threads advance the domains.
//
// Closed-loop feedback: a domain reports one DomainEvent per completion and
// per shed observation. The dispatcher folds one epoch's events (sorted) and
// issues each live client's next request at event.time + think + D — always
// at least one epoch ahead, which is exactly why barrier-time delivery never
// misses an admission. With zero lookahead (D == 0, the sequential fallback)
// the tier instead calls DeliverUpTo/OnEvent synchronously from inside the one
// combined lockstep run, where global clock order plays the coordinator.

#ifndef SRC_SERVE_DISPATCH_H_
#define SRC_SERVE_DISPATCH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/serve/request.h"
#include "src/serve/shard.h"
#include "src/workload/ycsb.h"
#include "src/workload/zipf.h"

namespace pmemsim {

// One cross-domain fact a domain reports at the epoch barrier: client
// `client`'s in-flight request resolved (completed, or was shed at admission)
// at cycle `time`. (time, client) pairs are unique within an epoch — a client
// has at most one request in flight — so sorting them is a total order.
struct DomainEvent {
  Cycles time;
  uint32_t client;
  bool operator<(const DomainEvent& o) const {
    return time != o.time ? time < o.time : client < o.client;
  }
};

class TierDispatcher {
 public:
  explicit TierDispatcher(const ServeConfig& cfg);

  // Destination shard for a key (pure function of content + seed).
  uint32_t Route(uint64_t key) const;

  // The seed-shuffled global preload key list, split by Route: element s is
  // domain s's preload list (each domain loads only the keys it owns).
  std::vector<std::vector<uint64_t>> PartitionLoadKeys() const;

  // Sink for routed requests; called on the coordinator thread only (or, in
  // eager mode, from inside the combined lockstep run). Must be set before
  // StartServing.
  void SetDeliverFn(std::function<void(uint32_t shard, const Request&)> fn);

  // Seeds the closed-loop clients (their first requests are issued at
  // t0 + think and delivered immediately — arrival times are future-dated,
  // the domain admits them when its clock gets there) or arms the open-loop
  // Poisson cursor.
  void StartServing(Cycles t0);

  // Open loop: generates and delivers every arrival with admission-eligible
  // time < epoch_end. Closed-loop issues come from ProcessEvents (or OnEvent)
  // instead. Epoch mode calls it once before each epoch; the eager fallback
  // calls DeliverUpTo(now + 1) from inside the combined lockstep run, at the
  // globally minimal clock, to deliver every arrival <= now.
  void DeliverUpTo(Cycles epoch_end);

  // Epoch barrier: folds one epoch's domain events from all domains — sorted
  // by (time, client) so the fold order is independent of domain count and
  // host threading — issuing each client's next request while the global
  // budget lasts. `events` is sorted in place and consumed.
  void ProcessEvents(std::vector<DomainEvent>* events);

  // Closed loop, eager (zero-lookahead) fallback: folds one event
  // (completion/shed) synchronously, from inside the combined lockstep run
  // at the globally minimal clock.
  void OnEvent(Cycles time, uint32_t client);

  // Eager mode: the admission-eligible time of the next open-loop arrival
  // the dispatcher will generate (nullopt when closed-loop or exhausted).
  // Idle domain workers park just past this instead of spinning in quanta.
  std::optional<Cycles> NextArrivalHint() const;

  // True when the dispatcher will never produce another arrival on its own:
  // open loop once the budget is fully generated; always for the closed loop
  // (future work there is client feedback, visible as undrained domains).
  bool Exhausted() const;

  uint64_t budget() const { return budget_; }
  uint64_t issued() const { return issued_; }

 private:
  Request Materialize(Cycles arrival, uint32_t client);
  uint64_t SkewedKey();
  Cycles ThinkDraw();
  void Deliver(const Request& r);

  const ServeConfig& cfg_;
  uint32_t shards_;
  uint64_t global_keys_;  // cfg.keys * cfg.shards
  uint64_t budget_;       // cfg.ops * cfg.shards offered-op issues
  Cycles latency_;        // cfg.dispatch_latency (D)

  std::function<void(uint32_t, const Request&)> deliver_;

  MixSampler mix_sampler_;
  ZipfGenerator zipf_;
  Rng think_rng_;
  PoissonArrivalGenerator arrivals_;
  uint64_t route_salt_;
  uint64_t key_scramble_salt_;
  bool latest_skew_ = false;

  uint64_t next_insert_key_;
  Cycles serve_start_ = 0;
  Cycles next_open_issue_ = 0;  // open loop: next un-dispatched arrival cycle
  uint64_t issued_ = 0;         // open: arrivals generated; closed: attempts
  uint32_t open_seq_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_SERVE_DISPATCH_H_
