// The shard's datastore and the serving tier's configuration: one
// datastore instance (CCEH, FAST&FAIR, or FlatLog) behind a uniform point-op
// API (ShardStore), plus the tier-wide ServeConfig. The request path that
// serves a shard lives in ServeDomain (src/serve/domain_tier.h).

#ifndef SRC_SERVE_SHARD_H_
#define SRC_SERVE_SHARD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/common/types.h"
#include "src/core/system.h"
#include "src/cpu/thread_context.h"
#include "src/datastores/cceh.h"
#include "src/datastores/fast_fair.h"
#include "src/datastores/flat_log.h"
#include "src/workload/ycsb.h"

namespace pmemsim {

enum class StoreKind : uint8_t { kCceh, kFastFair, kFlatLog };
const char* StoreName(StoreKind kind);
// nullopt for unknown names ("cceh" | "fastfair" | "flatlog").
std::optional<StoreKind> StoreByName(const std::string& name);

enum class LoopMode : uint8_t { kClosed, kOpen };
const char* LoopModeName(LoopMode mode);

// TraceMarker id emitted on every worker context when the measured serve
// phase opens, the point from which the admission queue counts (see
// src/serve/request_queue.h).
constexpr uint32_t kServePhaseMarker = 0x5345u;  // "SE"

// Tier-wide configuration; every count is per shard unless noted.
struct ServeConfig {
  StoreKind store = StoreKind::kFastFair;
  LoopMode loop = LoopMode::kClosed;
  std::string mix_name = "b";
  YcsbMix mix = YcsbMix{0.95, 0.05, 0, 0, 0};
  uint32_t shards = 4;
  uint32_t workers_per_shard = 2;
  uint64_t queue_depth = 64;
  uint64_t batch = 8;              // max requests a worker claims at once
  uint32_t clients = 8;            // closed loop: client population
  double think_cycles = 4000;      // closed loop: mean exponential think time
  double interarrival_cycles = 1500;  // open loop: mean Poisson inter-arrival
  uint64_t ops = 20000;            // admission attempts (offered ops) budget
  uint64_t keys = 20000;           // preloaded key population
  double theta = 0.99;             // Zipfian skew of the hot-key distribution
  uint32_t scan_len = 16;          // YCSB-E scan length
  uint64_t seed = 42;
  // Private-System domains only (DomainTier(platform, dimms, cfg)): host
  // threads advancing the shard domains of one point, and the modelled
  // client->shard dispatch latency in cycles — also the conservative epoch
  // window. engine_threads does not change any simulated result (that is the
  // determinism contract); dispatch_latency does (it is part of the simulated
  // model). The shared-System ServiceTier has no dispatch hop.
  uint32_t engine_threads = 1;
  Cycles dispatch_latency = 2048;
};

// One datastore instance of `kind` behind a uniform point-op API. Owns store
// construction and sizing: `preload_keys` records will be inserted before
// serving and append-only stores additionally reserve `append_budget` writes.
// Construction is timed on `loader`, like a real preload.
class ShardStore {
 public:
  ShardStore(System* system, StoreKind kind, uint64_t preload_keys, uint64_t append_budget,
             ThreadContext& loader);

  bool Get(ThreadContext& ctx, uint64_t key, uint64_t* value_out);
  // False when the key was absent (FAST&FAIR in-place update miss). A FlatLog
  // append cannot be refused (the log is sized for the whole op budget), so a
  // refusal fails a CHECK.
  bool Update(ThreadContext& ctx, uint64_t key, uint64_t value);
  void Insert(ThreadContext& ctx, uint64_t key, uint64_t value);
  // Ordered range scan; valid only when ordered() (callers emulate ranges on
  // hash-shaped stores as point reads).
  void TreeScan(ThreadContext& ctx, uint64_t from, uint32_t len);
  bool ordered() const { return kind_ == StoreKind::kFastFair; }
  // Durability point after the preload (FlatLog batches its appends).
  void FlushPreload(ThreadContext& ctx);

 private:
  StoreKind kind_;
  // Exactly one store is non-null, selected by `kind`.
  std::unique_ptr<Cceh> cceh_;
  std::unique_ptr<FastFairTree> tree_;
  std::unique_ptr<FlatLog> flat_;
};

}  // namespace pmemsim

#endif  // SRC_SERVE_SHARD_H_
