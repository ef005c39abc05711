#include "src/cache/prefetcher.h"

#include <cstdlib>

#include "src/cache/hierarchy.h"
#include "src/common/check.h"

namespace pmemsim {

PrefetchEngine::PrefetchEngine(const CacheConfig& config, CacheHierarchy* hierarchy,
                               uint64_t rng_seed)
    : hierarchy_(hierarchy),
      rng_(rng_seed),
      adjacent_enabled_(config.adjacent_line_prefetch),
      dcu_enabled_(config.dcu_streamer_prefetch),
      stream_enabled_(config.l2_stream_prefetch),
      stream_degree_(config.stream_prefetch_degree) {
  PMEMSIM_CHECK(hierarchy_ != nullptr);
}

void PrefetchEngine::SetEnabled(bool adjacent, bool dcu, bool stream) {
  adjacent_enabled_ = adjacent;
  dcu_enabled_ = dcu;
  stream_enabled_ = stream;
}

void PrefetchEngine::OnDemandAccess(const DemandInfo& info) {
  const Addr line = CacheLineBase(info.line);

  if (dcu_enabled_ && last_demand_line_ != ~0ull &&
      line == last_demand_line_ + kCacheLineSize) {
    hierarchy_->PrefetchFill(line + kCacheLineSize, info.now, /*into_l1=*/true);
  }
  last_demand_line_ = line;

  if (adjacent_enabled_) {
    const bool l2_demand_miss = info.hit_level == 0 || info.hit_level > 2;
    if (l2_demand_miss || info.first_touch_prefetched) {
      hierarchy_->PrefetchFill(line + kCacheLineSize, info.now, /*into_l1=*/false);
    }
  }

  if (stream_enabled_ && info.hit_level != 1) {
    StreamTrain(line, info.now);
  }
}

void PrefetchEngine::StreamTrain(Addr line, Cycles now) {
  const Addr page = PageBase(line);
  StreamEntry* entry = nullptr;
  StreamEntry* victim = &streams_[0];
  for (StreamEntry& e : streams_) {
    if (e.valid && e.page == page) {
      entry = &e;
      break;
    }
    if (!e.valid || e.lru < victim->lru) {
      victim = &e;
    }
  }
  if (entry == nullptr) {
    *victim = StreamEntry{};
    victim->valid = true;
    victim->page = page;
    victim->last_line = line;
    victim->lru = ++stream_tick_;
    return;
  }
  entry->lru = ++stream_tick_;

  const int64_t stride = static_cast<int64_t>(line) - static_cast<int64_t>(entry->last_line);
  entry->last_line = line;
  if (stride == 0) {
    return;
  }
  if (stride != entry->stride || std::llabs(stride) > 2048) {
    entry->stride = stride;
    entry->steps = 1;
    entry->locked = false;
    return;
  }
  ++entry->steps;
  if (!entry->locked && entry->steps >= 3) {
    // Lock arbitration: modeled stochastically (see header).
    if (rng_.NextDouble() < stream_lock_probability_) {
      entry->locked = true;
    } else {
      entry->steps = 0;  // lost arbitration; retrain
      return;
    }
  }
  if (entry->locked) {
    for (uint32_t d = 1; d <= stream_degree_; ++d) {
      const int64_t target = static_cast<int64_t>(line) + entry->stride * static_cast<int64_t>(d);
      if (target >= 0) {
        hierarchy_->PrefetchFill(static_cast<Addr>(target), now, /*into_l1=*/false);
      }
    }
  }
}

void PrefetchEngine::Reset() {
  last_demand_line_ = ~0ull;
  streams_ = {};
  stream_tick_ = 0;
}

}  // namespace pmemsim
