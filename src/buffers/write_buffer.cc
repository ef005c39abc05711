#include "src/buffers/write_buffer.h"

#include <algorithm>

#include "src/common/check.h"

namespace pmemsim {

WriteBuffer::WriteBuffer(const WriteBufferConfig& config, Counters* counters, uint64_t rng_seed)
    : config_(config),
      counters_(counters),
      rng_(rng_seed),
      capacity_entries_(static_cast<size_t>(config.capacity_bytes / kXPLineSize)) {
  PMEMSIM_CHECK(counters_ != nullptr);
  PMEMSIM_CHECK(capacity_entries_ > 0);
  PMEMSIM_CHECK(config.partial_reserve_entries < capacity_entries_);
  partial_capacity_ = capacity_entries_ - config.partial_reserve_entries;
  keys_.reserve(capacity_entries_);
  entries_.reserve(capacity_entries_);
  index_.Reserve(capacity_entries_);
}

size_t WriteBuffer::CountPartial() const {
  size_t n = 0;
  for (const Entry& e : entries_) {
    if (IsPartial(e)) {
      ++n;
    }
  }
  return n;
}

void WriteBuffer::Append(Addr xpline, const Entry& e) {
  index_[xpline] = static_cast<uint32_t>(keys_.size());
  keys_.push_back(xpline);
  entries_.push_back(e);
  NotePartialChange(false, IsPartial(e));
}

bool WriteBuffer::Write(Addr line_addr, Cycles now, Cycles visible_at,
                        std::vector<WritebackRequest>& writebacks) {
  Tick(now, writebacks);
  const Addr xpline = XPLineBase(line_addr);
  const uint8_t bit = static_cast<uint8_t>(1u << LineIndexInXPLine(line_addr));

  if (const uint32_t* pos = index_.Find(xpline)) {
    Entry& e = entries_[*pos];
    const bool was_partial = IsPartial(e);
    e.dirty_mask |= bit;
    e.valid_mask |= bit;
    const uint64_t idx = LineIndexInXPLine(line_addr);
    e.visible_at[idx] = std::max(e.visible_at[idx], visible_at);
    e.clean = false;
    NotePartialChange(was_partial, IsPartial(e));
    ++counters_->write_buffer_hits;
    return true;
  }

  ++counters_->write_buffer_misses;
  EnsureRoom(writebacks);
  Entry e;
  e.dirty_mask = bit;
  e.valid_mask = bit;
  e.visible_at[LineIndexInXPLine(line_addr)] = visible_at;
  Append(xpline, e);
  return false;
}

void WriteBuffer::Tick(Cycles now, std::vector<WritebackRequest>& writebacks) {
  if (!config_.periodic_full_writeback ||
      now < last_periodic_tick_ + config_.full_writeback_period) {
    return;
  }
  last_periodic_tick_ = now;
  // Iterate the dense insertion-ordered storage: the write-back order must be
  // bit-for-bit reproducible for the figure-regression gate.
  for (size_t i = 0; i < keys_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.dirty_mask == 0x0F) {
      writebacks.push_back({keys_[i], /*needs_rmw=*/false, /*periodic=*/true});
      e.dirty_mask = 0;
      e.clean = true;
      ++counters_->periodic_writebacks;
    }
  }
}

bool WriteBuffer::ContainsXPLine(Addr addr) const {
  return index_.Contains(XPLineBase(addr));
}

Cycles WriteBuffer::VisibleAt(Addr line_addr) const {
  const uint32_t* pos = index_.Find(XPLineBase(line_addr));
  if (pos == nullptr) {
    return 0;
  }
  const Entry& e = entries_[*pos];
  const uint64_t idx = LineIndexInXPLine(line_addr);
  if (!(e.valid_mask & (1u << idx))) {
    return 0;
  }
  return e.visible_at[idx];
}

void WriteBuffer::InstallTransition(Addr line_addr, Cycles now, Cycles visible_at,
                                    std::vector<WritebackRequest>& writebacks) {
  Tick(now, writebacks);
  const Addr xpline = XPLineBase(line_addr);
  PMEMSIM_DCHECK(!index_.Contains(xpline));
  EnsureRoom(writebacks);
  Entry e;
  e.dirty_mask = static_cast<uint8_t>(1u << LineIndexInXPLine(line_addr));
  e.valid_mask = 0x0F;  // the read buffer held the whole XPLine
  e.visible_at[LineIndexInXPLine(line_addr)] = visible_at;
  Append(xpline, e);
  ++counters_->read_write_transitions;
  ++counters_->write_buffer_hits;  // the 64 B write itself did not miss
}

bool WriteBuffer::AbsorbFill(Addr addr) {
  const uint32_t* pos = index_.Find(XPLineBase(addr));
  if (pos == nullptr) {
    return false;
  }
  entries_[*pos].valid_mask = 0x0F;
  return true;
}

void WriteBuffer::EnsureRoom(std::vector<WritebackRequest>& writebacks) {
  // Total-capacity constraint.
  while (keys_.size() >= capacity_entries_) {
    EvictOne(writebacks);
  }
  // Partial-entry constraint (the G1 12 KB knee).
  PMEMSIM_DCHECK(partial_count_ == static_cast<ptrdiff_t>(CountPartial()));
  if (partial_count_ < static_cast<ptrdiff_t>(partial_capacity_)) {
    return;
  }
  const ptrdiff_t target = static_cast<ptrdiff_t>(
      config_.batch_evict ? static_cast<size_t>(static_cast<double>(partial_capacity_) *
                                                config_.batch_evict_keep_fraction)
                          : partial_capacity_ - 1);
  while (partial_count_ > target) {
    // Evict a *partial* victim chosen by the configured policy.
    size_t victim = 0;
    bool found = false;
    if (config_.eviction == WriteBufferEviction::kOldest) {
      for (size_t i = 0; i < keys_.size(); ++i) {
        if (IsPartial(entries_[i])) {
          victim = i;
          found = true;
          break;
        }
      }
    } else {
      for (int tries = 0; tries < 64 && !found; ++tries) {
        const size_t cand = static_cast<size_t>(rng_.NextBelow(keys_.size()));
        if (IsPartial(entries_[cand])) {
          victim = cand;
          found = true;
        }
      }
    }
    if (!found) {
      // Fallback scan in insertion order (deterministic across stdlibs).
      for (size_t i = 0; i < keys_.size(); ++i) {
        if (IsPartial(entries_[i])) {
          victim = i;
          found = true;
          break;
        }
      }
    }
    PMEMSIM_CHECK(found);
    EvictVictimAt(victim, writebacks);
  }
}

size_t WriteBuffer::PickRandomishVictimPos() {
  if (config_.eviction == WriteBufferEviction::kOldest) {
    return 0;  // insertion order survives until eviction shifts
  }
  return static_cast<size_t>(rng_.NextBelow(keys_.size()));
}

void WriteBuffer::EvictOne(std::vector<WritebackRequest>& writebacks) {
  PMEMSIM_CHECK(!keys_.empty());
  // Prefer a clean entry (free to drop); otherwise a policy victim. Scan the
  // dense insertion-ordered storage so the victim does not depend on any
  // hash-table iteration order.
  for (size_t i = 0; i < keys_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.clean && e.dirty_mask == 0) {
      EvictVictimAt(i, writebacks);
      return;
    }
  }
  EvictVictimAt(PickRandomishVictimPos(), writebacks);
}

void WriteBuffer::EvictVictimAt(size_t pos, std::vector<WritebackRequest>& writebacks) {
  PMEMSIM_DCHECK(pos < keys_.size());
  const Addr xpline = keys_[pos];
  const Entry& e = entries_[pos];
  if (e.dirty_mask != 0) {
    // Partially dirty entries whose remaining lines are not held (valid_mask
    // short of full) must fetch the rest of the XPLine before programming.
    writebacks.push_back({xpline, /*needs_rmw=*/e.valid_mask != 0x0F, /*periodic=*/false});
    ++counters_->write_buffer_evictions;
  }
  NotePartialChange(IsPartial(e), false);
  if (config_.eviction == WriteBufferEviction::kOldest) {
    // Preserve insertion order (n <= 64, the erase is cheap).
    keys_.erase(keys_.begin() + static_cast<ptrdiff_t>(pos));
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(pos));
    for (size_t i = pos; i < keys_.size(); ++i) {
      index_[keys_[i]] = static_cast<uint32_t>(i);
    }
  } else if (pos + 1 == keys_.size()) {
    keys_.pop_back();
    entries_.pop_back();
  } else {
    keys_[pos] = keys_.back();
    entries_[pos] = entries_.back();
    index_[keys_[pos]] = static_cast<uint32_t>(pos);
    keys_.pop_back();
    entries_.pop_back();
  }
  index_.Erase(xpline);
}

void WriteBuffer::DrainAll(std::vector<WritebackRequest>& writebacks) {
  // Drain in insertion order, for reproducible write-back sequences.
  for (size_t i = 0; i < keys_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.dirty_mask != 0) {
      writebacks.push_back({keys_[i], e.valid_mask != 0x0F, false});
      ++counters_->write_buffer_evictions;
    }
  }
  Clear();
}

void WriteBuffer::Clear() {
  keys_.clear();
  entries_.clear();
  index_.Clear();
  partial_count_ = 0;
}

}  // namespace pmemsim
