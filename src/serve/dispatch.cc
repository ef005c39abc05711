#include "src/serve/dispatch.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace pmemsim {
namespace {

// Decorrelated per-(slot, stream) seed so every stochastic source — load-key
// order, op mix, key skew, think times, arrivals — draws from its own stream.
uint64_t ServeSubSeed(uint64_t seed, uint32_t slot, uint32_t stream) {
  return Mix64(seed + 0x9E3779B97F4A7C15ull * (uint64_t{slot} * 8 + stream + 1));
}

// The dispatcher's streams live in slot cfg.shards.
constexpr uint32_t kMixStream = 0;
constexpr uint32_t kZipfStream = 1;
constexpr uint32_t kThinkStream = 2;
constexpr uint32_t kSaltStream = 3;
constexpr uint32_t kArrivalStream = 4;
constexpr uint32_t kLoadKeyStream = 5;
constexpr uint32_t kRouteStream = 6;

}  // namespace

TierDispatcher::TierDispatcher(const ServeConfig& cfg)
    : cfg_(cfg),
      shards_(cfg.shards),
      global_keys_(cfg.keys * cfg.shards),
      budget_(cfg.ops * cfg.shards),
      latency_(cfg.dispatch_latency),
      mix_sampler_(cfg.mix, ServeSubSeed(cfg.seed, cfg.shards, kMixStream)),
      zipf_(global_keys_, cfg.theta, ServeSubSeed(cfg.seed, cfg.shards, kZipfStream)),
      think_rng_(ServeSubSeed(cfg.seed, cfg.shards, kThinkStream)),
      // Global arrival rate: the per-shard mean divided by the shard count,
      // so the tier carries cfg.shards times one shard's offered load.
      arrivals_(cfg.interarrival_cycles / cfg.shards,
                ServeSubSeed(cfg.seed, cfg.shards, kArrivalStream)),
      route_salt_(ServeSubSeed(cfg.seed, cfg.shards, kRouteStream)),
      key_scramble_salt_(ServeSubSeed(cfg.seed, cfg.shards, kSaltStream)),
      next_insert_key_(global_keys_ + 1) {
  PMEMSIM_CHECK(cfg.shards > 0 && cfg.keys > 0);
  PMEMSIM_CHECK_MSG(budget_ <= UINT32_MAX, "open-loop sequence ids are 32-bit");
  latest_skew_ = !cfg.mix_name.empty() && (cfg.mix_name[0] == 'd' || cfg.mix_name[0] == 'D');
}

uint32_t TierDispatcher::Route(uint64_t key) const {
  return static_cast<uint32_t>(Mix64(key ^ route_salt_) % shards_);
}

std::vector<std::vector<uint64_t>> TierDispatcher::PartitionLoadKeys() const {
  const std::vector<uint64_t> all =
      MakeLoadKeys(global_keys_, ServeSubSeed(cfg_.seed, cfg_.shards, kLoadKeyStream));
  std::vector<std::vector<uint64_t>> per_shard(shards_);
  for (uint32_t s = 0; s < shards_; ++s) {
    per_shard[s].reserve(global_keys_ / shards_ + 1);
  }
  for (const uint64_t key : all) {
    per_shard[Route(key)].push_back(key);
  }
  return per_shard;
}

void TierDispatcher::SetDeliverFn(std::function<void(uint32_t, const Request&)> fn) {
  deliver_ = std::move(fn);
}

void TierDispatcher::StartServing(Cycles t0) {
  PMEMSIM_CHECK(deliver_ != nullptr);
  serve_start_ = t0;
  if (cfg_.loop == LoopMode::kClosed) {
    const uint64_t clients = uint64_t{cfg_.clients} * shards_;
    const uint64_t first = std::min(clients, budget_);
    for (uint32_t c = 0; c < first; ++c) {
      Deliver(Materialize(t0 + ThinkDraw() + latency_, c));
      ++issued_;
    }
  } else if (budget_ > 0) {
    next_open_issue_ = t0 + arrivals_.Next();
  }
}

void TierDispatcher::DeliverUpTo(Cycles epoch_end) {
  if (cfg_.loop != LoopMode::kOpen) {
    return;
  }
  while (issued_ < budget_ && next_open_issue_ + latency_ < epoch_end) {
    Deliver(Materialize(next_open_issue_ + latency_, open_seq_++));
    ++issued_;
    if (issued_ < budget_) {
      next_open_issue_ = serve_start_ + arrivals_.Next();
    }
  }
}

void TierDispatcher::ProcessEvents(std::vector<DomainEvent>* events) {
  std::sort(events->begin(), events->end());
  for (const DomainEvent& ev : *events) {
    OnEvent(ev.time, ev.client);
  }
  events->clear();
}

void TierDispatcher::OnEvent(Cycles time, uint32_t client) {
  if (cfg_.loop != LoopMode::kClosed || issued_ >= budget_) {
    return;  // budget spent: the client retires
  }
  Deliver(Materialize(time + ThinkDraw() + latency_, client));
  ++issued_;
}

std::optional<Cycles> TierDispatcher::NextArrivalHint() const {
  if (cfg_.loop == LoopMode::kOpen && issued_ < budget_) {
    return next_open_issue_ + latency_;
  }
  return std::nullopt;
}

bool TierDispatcher::Exhausted() const {
  return cfg_.loop == LoopMode::kClosed || issued_ >= budget_;
}

Request TierDispatcher::Materialize(Cycles arrival, uint32_t client) {
  Request r;
  r.arrival = arrival;
  r.client = client;
  r.op = mix_sampler_.Next();
  switch (r.op) {
    case ServeOp::kInsert:
      r.key = next_insert_key_++;
      break;
    case ServeOp::kScan:
      r.key = SkewedKey();
      r.scan_len = cfg_.scan_len;
      break;
    default:
      r.key = SkewedKey();
      break;
  }
  return r;
}

uint64_t TierDispatcher::SkewedKey() {
  const uint64_t population = next_insert_key_ - 1;  // keys 1..population exist
  const uint64_t rank = zipf_.Next();
  if (latest_skew_) {
    return population - rank % population;
  }
  return 1 + Mix64(rank ^ key_scramble_salt_) % population;
}

Cycles TierDispatcher::ThinkDraw() {
  const double u = think_rng_.NextDouble();
  const double cycles = -cfg_.think_cycles * std::log(1.0 - u);
  return cycles < 1.0 ? Cycles{1} : static_cast<Cycles>(cycles);
}

void TierDispatcher::Deliver(const Request& r) { deliver_(Route(r.key), r); }

}  // namespace pmemsim
