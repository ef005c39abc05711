#include "src/cache/prefetcher.h"

#include <bit>
#include <cstdlib>

#include "src/cache/byte_lanes.h"
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
  const uint8_t fp = PageFingerprint(page);
  StreamEntry* entry = nullptr;
  uint32_t slot = 0;
  for (uint32_t hits = MatchLanes(stream_fps_.data(), fp, kStreams) & stream_valid_; hits != 0;
       hits &= hits - 1) {
    slot = static_cast<uint32_t>(std::countr_zero(hits));
    if (streams_[slot].page == page) {
      entry = &streams_[slot];
      break;
    }
  }
  if (entry == nullptr) {
    const uint32_t free = ~uint32_t{stream_valid_} & LaneMask(kStreams);
    slot = free != 0 ? static_cast<uint32_t>(std::countr_zero(free))
                     : OldestLane(stream_ages_.data(), kStreams);
    streams_[slot] = StreamEntry{};
    streams_[slot].page = page;
    streams_[slot].last_line = line;
    stream_fps_[slot] = fp;
    stream_valid_ |= static_cast<uint16_t>(1u << slot);
    TouchAges(stream_ages_.data(), slot, kStreams);
    return;
  }
  TouchAges(stream_ages_.data(), slot, kStreams);

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
  stream_ages_ = kIdentityAges;
  stream_valid_ = 0;
}

}  // namespace pmemsim
