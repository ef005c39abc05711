#include "src/crash/persist_tracker.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/imc/memory_controller.h"

namespace pmemsim {

PersistTracker::~PersistTracker() {
  if (system_ != nullptr) {
    system_->SetPersistObserver(nullptr);
  }
}

void PersistTracker::Attach(System* system) {
  PMEMSIM_CHECK(system != nullptr);
  PMEMSIM_CHECK_MSG(system_ == nullptr, "tracker is already attached");
  system_ = system;
  system_->SetPersistObserver(this);
}

void PersistTracker::OnStore(Addr addr, uint64_t len, Cycles now) {
  (void)now;
  if (MemoryController::KindOf(addr) != MemoryKind::kOptane || len == 0) {
    return;
  }
  if (eadr_) {
    // The caches are inside the persistence domain: the store is durable the
    // moment it retires, so snapshot the bytes now.
    AddRecord(addr, static_cast<uint32_t>(len), /*retired_store=*/true, /*accepted_at=*/0);
    return;
  }
  // ADR: the bytes sit in a volatile cache until a write-back reaches the
  // iMC. Track the dirty lines for the vulnerable-byte statistics.
  const Addr first = CacheLineBase(addr);
  const Addr last = CacheLineBase(addr + len - 1);
  for (Addr line = first; line <= last; line += kCacheLineSize) {
    if (dirty_lines_.Insert(line, true) && inflight_.Contains(line)) {
      ++overlap_lines_;  // re-dirtied while still in flight
    }
  }
  PurgeMatured(now);
  SampleWindow();
}

void PersistTracker::AddRecord(Addr addr, uint32_t len, bool retired_store, Cycles accepted_at) {
  Record& rec = records_.emplace_back();
  rec.addr = addr;
  rec.len = len;
  rec.retired_store = retired_store;
  rec.accepted_at = accepted_at;
  rec.data_offset = snapshots_.size();
  snapshots_.resize(snapshots_.size() + len);
  system_->backing().Read(addr, snapshots_.data() + rec.data_offset, len);
}

void PersistTracker::OnPmWrite(Addr line, Cycles issue, Cycles accepted_at,
                               Cycles drained_at) {
  AddRecord(line, kCacheLineSize, /*retired_store=*/false, accepted_at);

  if (!eadr_) {
    // The line left the cache hierarchy. It is now in flight and not dirty,
    // so it adds no overlap.
    if (dirty_lines_.Erase(line) && inflight_.Contains(line)) {
      --overlap_lines_;
    }
    ++inflight_[line];
    pending_accepts_.emplace(accepted_at, line);
  }
  // Sample at issue time: the new line sits in the WPQ entry path, not yet
  // accepted (issue < accepted_at), which is exactly the vulnerable moment.
  PurgeMatured(issue);
  SampleWindow();
  // Each iMC write contributes two crash points: the instant the WPQ accepts
  // it (its ADR persist point) and the instant it drains to the DIMM buffer.
  NoteEvent(CrashEventKind::kWpqAccept, accepted_at);
  NoteEvent(CrashEventKind::kWpqDrain, drained_at);
}

void PersistTracker::OnFence(Cycles now) {
  PurgeMatured(now);
  SampleWindow();
  NoteEvent(CrashEventKind::kFence, now);
}

void PersistTracker::PurgeMatured(Cycles now) {
  accept_watermark_ = std::max(accept_watermark_, now);
  // Retire every pending write the WPQ has accepted by the watermark.
  while (!pending_accepts_.empty() && pending_accepts_.top().first <= accept_watermark_) {
    const Addr line = pending_accepts_.top().second;
    pending_accepts_.pop();
    uint32_t* count = inflight_.Find(line);
    if (count != nullptr && --*count == 0) {
      inflight_.Erase(line);
      if (dirty_lines_.Contains(line)) {
        --overlap_lines_;
      }
    }
  }
}

void PersistTracker::SampleWindow() {
  ++stats_.samples;
  // Under eADR the sets stay empty, so every term is zero.
  const uint64_t in_cache = kCacheLineSize * dirty_lines_.size();
  const uint64_t in_wpq = kCacheLineSize * inflight_.size();
  const uint64_t vulnerable = in_cache + in_wpq - kCacheLineSize * overlap_lines_;
  stats_.max_in_cache_bytes = std::max(stats_.max_in_cache_bytes, in_cache);
  stats_.max_in_wpq_bytes = std::max(stats_.max_in_wpq_bytes, in_wpq);
  stats_.max_vulnerable_bytes = std::max(stats_.max_vulnerable_bytes, vulnerable);
  stats_.sum_vulnerable_bytes += vulnerable;
}

void PersistTracker::NoteEvent(CrashEventKind kind, Cycles now) {
  if (injector_ == nullptr) {
    return;  // events only exist once StartEvents() has been called
  }
  PurgeMatured(now);
  injector_->OnEvent(kind, now);  // may throw CrashSignal
}

PersistTracker::MaterializeResult PersistTracker::Materialize(
    BackingStore* out, Cycles crash_now, uint64_t tear_seed,
    TearGranularity granularity) const {
  PMEMSIM_CHECK(out != nullptr);
  MaterializeResult result;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& rec = records_[i];
    const uint8_t* data = snapshots_.data() + rec.data_offset;
    const bool durable = eadr_ || rec.retired_store || rec.accepted_at <= crash_now;
    if (durable) {
      out->Write(rec.addr, data, rec.len);
      ++result.durable_writes;
      continue;
    }
    // In flight to the iMC at the crash: a per-record seeded draw decides its
    // fate. Index-keyed so the outcome is independent of crash_now and
    // reproducible across runs.
    ++result.inflight_writes;
    Rng rng(Mix64(tear_seed + 0x9E3779B97F4A7C15ull * (i + 1)));
    const uint64_t fate = rng.NextBelow(3);
    if (fate == 0) {
      out->Write(rec.addr, data, rec.len);
      ++result.survived_writes;
    } else if (fate == 1) {
      ++result.lost_writes;  // the old bytes stay
    } else {
      // Torn: each aligned 8-byte word lands independently (the x86 failure-
      // atomicity unit); sub-word mode additionally allows a byte prefix.
      ++result.torn_writes;
      for (uint32_t off = 0; off < rec.len; off += 8) {
        const uint32_t span = std::min<uint32_t>(8, rec.len - off);
        if ((rng.Next() & 1) != 0) {
          out->Write(rec.addr + off, data + off, span);
        } else if (granularity == TearGranularity::kSubword) {
          const uint32_t prefix =
              std::min<uint32_t>(static_cast<uint32_t>(rng.NextBelow(9)), span);
          if (prefix > 0) {
            out->Write(rec.addr + off, data + off, prefix);
          }
        }
      }
    }
  }
  return result;
}

}  // namespace pmemsim
