#include "src/datastores/fast_fair.h"

#include <cstring>

#include "src/common/check.h"
#include "src/persist/barrier.h"

namespace pmemsim {

FastFairTree::FastFairTree(System* system, ThreadContext& ctx, MemoryKind kind)
    : system_(system), kind_(kind) {
  PMEMSIM_CHECK(system != nullptr);
  const PmRegion meta = kind_ == MemoryKind::kOptane
                            ? system_->AllocatePm(kCacheLineSize, kCacheLineSize)
                            : system_->AllocateDram(kCacheLineSize, kCacheLineSize);
  meta_ = meta.base;
  root_ = AllocateNode(ctx, /*leaf=*/true);
  PersistentStore64(ctx, meta_, root_, PersistMode::kClwbSfence);
}

Addr FastFairTree::AllocateNode(ThreadContext& ctx, bool leaf) {
  ++node_count_;
  const PmRegion node = kind_ == MemoryKind::kOptane
                            ? system_->AllocatePm(kNodeSize, kXPLineSize)
                            : system_->AllocateDram(kNodeSize, kXPLineSize);
  ctx.Store64(node.base, 0);                 // count
  ctx.Store64(node.base + 8, leaf ? 1 : 0);  // leaf flag
  ctx.Store64(node.base + 16, 0);            // sibling
  Persist(ctx, node.base, 24);
  return node.base;
}

void FastFairTree::ShiftInsert(ThreadContext& ctx, Addr node, uint64_t count, uint64_t pos,
                               uint64_t key, uint64_t value, BTreeUpdateMode mode,
                               RedoLog* log) {
  PMEMSIM_CHECK(count < kMaxEntries);
  if (mode == BTreeUpdateMode::kRedoLog) {
    PMEMSIM_CHECK(log != nullptr);
    // Out-of-place: every 16 B move is logged to a fresh PM log cacheline
    // (same write count as the baseline), committed and applied per target
    // cacheline group (Fig. 11).
    Addr group_line = ~0ull;
    auto flush_group = [&] {
      if (log->open_entries() > 0) {
        log->Commit(ctx);
        log->Apply(ctx);
      }
    };
    for (uint64_t j = count; j > pos; --j) {
      const uint64_t k = ctx.Load64(EntryAddr(node, j - 1));
      const uint64_t v = ctx.Load64(EntryAddr(node, j - 1) + 8);
      const Addr dst = EntryAddr(node, j);
      if (CacheLineBase(dst) != group_line) {
        flush_group();
        group_line = CacheLineBase(dst);
      }
      uint64_t payload[2] = {k, v};
      log->LogUpdate(ctx, dst, payload, sizeof(payload));
    }
    {
      const Addr dst = EntryAddr(node, pos);
      if (CacheLineBase(dst) != group_line) {
        flush_group();
      }
      uint64_t payload[2] = {key, value};
      log->LogUpdate(ctx, dst, payload, sizeof(payload));
      flush_group();
    }
    // Count update goes through the log as well.
    const uint64_t new_count = count + 1;
    log->LogUpdate(ctx, node, &new_count, sizeof(new_count));
    log->Commit(ctx);
    log->Apply(ctx);
    return;
  }

  // Baseline: in-place shifts, one persistence barrier per 16 B move. Moves
  // within one cacheline repeatedly flush and reload that line. A 16 B entry
  // never straddles a line, so persisting its value word persists its key.
  //
  // Crash-safe order (FAST): first duplicate the last entry one slot right
  // and grow the count over it, THEN shift the remaining entries. Every
  // intermediate state keeps all committed entries inside [0, count) — a
  // crash mid-shift leaves only an adjacent duplicate, which readers discard
  // via the no-duplicate-pointer invariant. Growing the count before the
  // duplicate (or shifting first) would strand the last entry beyond the
  // count for a window, losing it on a crash.
  if (pos == count) {
    // Appending: publish the entry, then the count (entry invisible until the
    // count grows, so a crash in between simply drops the unacked insert).
    ctx.Store64(EntryAddr(node, pos), key);
    PersistentStore64(ctx, EntryAddr(node, pos) + 8, value, PersistMode::kClwbSfence);
    PersistentStore64(ctx, node, count + 1, PersistMode::kClwbSfence);
    return;
  }
  ctx.Store64(EntryAddr(node, count), ctx.Load64(EntryAddr(node, count - 1)));
  PersistentStore64(ctx, EntryAddr(node, count) + 8, ctx.Load64(EntryAddr(node, count - 1) + 8),
                    PersistMode::kClwbSfence);
  PersistentStore64(ctx, node, count + 1, PersistMode::kClwbSfence);
  for (uint64_t j = count - 1; j > pos; --j) {
    const uint64_t k = ctx.Load64(EntryAddr(node, j - 1));
    const uint64_t v = ctx.Load64(EntryAddr(node, j - 1) + 8);
    ctx.Store64(EntryAddr(node, j), k);
    PersistentStore64(ctx, EntryAddr(node, j) + 8, v, PersistMode::kClwbSfence);
  }
  ctx.Store64(EntryAddr(node, pos), key);
  PersistentStore64(ctx, EntryAddr(node, pos) + 8, value, PersistMode::kClwbSfence);
}

FastFairTree::Promoted FastFairTree::SplitNode(ThreadContext& ctx, Addr node, bool leaf) {
  const uint64_t count = Count(ctx, node);
  PMEMSIM_CHECK(count == kMaxEntries);
  const uint64_t half = count / 2;
  const Addr right = AllocateNode(ctx, leaf);

  // Separator: for a leaf the middle key is duplicated into the parent; for
  // an internal node it moves up and the right node starts with the sentinel.
  const uint64_t separator = ctx.Load64(EntryAddr(node, half));

  uint64_t out = 0;
  for (uint64_t j = half; j < count; ++j) {
    uint64_t k = ctx.Load64(EntryAddr(node, j));
    const uint64_t v = ctx.Load64(EntryAddr(node, j) + 8);
    if (!leaf && j == half) {
      k = kMinKey;  // promoted key's child becomes the right node's low fence
    }
    ctx.Store64(EntryAddr(right, out), k);
    ctx.Store64(EntryAddr(right, out) + 8, v);
    ++out;
  }
  for (Addr line = CacheLineBase(EntryAddr(right, 0));
       line <= CacheLineBase(EntryAddr(right, out - 1)); line += kCacheLineSize) {
    ctx.Clwb(line);
  }
  ctx.Store64(right, out);
  // Sibling chain (leaf level).
  if (leaf) {
    const uint64_t old_sibling = ctx.Load64(node + 16);
    ctx.Store64(right + 16, old_sibling);
  }
  ctx.Clwb(right);
  ctx.Sfence();  // right node fully durable before it becomes reachable

  // Link the sibling first, then shrink the left node. With the link durable
  // the right half is reachable through the leaf chain even if the crash
  // lands before the count shrink (readers see the moved entries twice and
  // drop the second copies); shrinking first would leave those entries
  // unreachable — committed keys silently lost — for a whole barrier window.
  if (leaf) {
    PersistentStore64(ctx, node + 16, right, PersistMode::kClwbSfence);
  }
  PersistentStore64(ctx, node, half, PersistMode::kClwbSfence);
  return {separator, right};
}

std::optional<FastFairTree::Promoted> FastFairTree::InsertRecurse(ThreadContext& ctx, Addr node,
                                                                  uint64_t key, uint64_t value,
                                                                  BTreeUpdateMode mode,
                                                                  RedoLog* log) {
  const uint64_t count = Count(ctx, node);
  const bool leaf = IsLeaf(ctx, node) != 0;

  if (leaf) {
    if (count == kMaxEntries) {
      Promoted p = SplitNode(ctx, node, /*leaf=*/true);
      if (key >= p.key) {
        const uint64_t right_count = Count(ctx, p.node);
        uint64_t pos = 0;
        while (pos < right_count && ctx.Load64(EntryAddr(p.node, pos)) < key) {
          ++pos;
        }
        ShiftInsert(ctx, p.node, right_count, pos, key, value, mode, log);
      } else {
        const uint64_t left_count = Count(ctx, node);
        uint64_t pos = 0;
        while (pos < left_count && ctx.Load64(EntryAddr(node, pos)) < key) {
          ++pos;
        }
        ShiftInsert(ctx, node, left_count, pos, key, value, mode, log);
      }
      return p;
    }
    uint64_t pos = 0;
    while (pos < count && ctx.Load64(EntryAddr(node, pos)) < key) {
      ++pos;
    }
    ShiftInsert(ctx, node, count, pos, key, value, mode, log);
    return std::nullopt;
  }

  // Internal: find the child covering `key` (last entry with key <= target).
  uint64_t idx = 0;
  for (uint64_t j = 1; j < count; ++j) {
    if (ctx.Load64(EntryAddr(node, j)) <= key) {
      idx = j;
    } else {
      break;
    }
  }
  const Addr child = ctx.Load64(EntryAddr(node, idx) + 8);
  std::optional<Promoted> promoted = InsertRecurse(ctx, child, key, value, mode, log);
  if (!promoted) {
    return std::nullopt;
  }

  const uint64_t cur_count = Count(ctx, node);
  if (cur_count == kMaxEntries) {
    Promoted p = SplitNode(ctx, node, /*leaf=*/false);
    Addr target = promoted->key >= p.key ? p.node : node;
    const uint64_t tcount = Count(ctx, target);
    uint64_t pos = 0;
    while (pos < tcount && ctx.Load64(EntryAddr(target, pos)) < promoted->key) {
      ++pos;
    }
    ShiftInsert(ctx, target, tcount, pos, promoted->key, promoted->node, mode, log);
    return p;
  }
  uint64_t pos = 0;
  while (pos < cur_count && ctx.Load64(EntryAddr(node, pos)) < promoted->key) {
    ++pos;
  }
  ShiftInsert(ctx, node, cur_count, pos, promoted->key, promoted->node, mode, log);
  return std::nullopt;
}

void FastFairTree::Insert(ThreadContext& ctx, uint64_t key, uint64_t value, BTreeUpdateMode mode,
                          RedoLog* log) {
  PMEMSIM_CHECK(key > kMinKey);
  std::optional<Promoted> promoted = InsertRecurse(ctx, root_, key, value, mode, log);
  if (promoted) {
    const Addr new_root = AllocateNode(ctx, /*leaf=*/false);
    ctx.Store64(EntryAddr(new_root, 0), kMinKey);
    ctx.Store64(EntryAddr(new_root, 0) + 8, root_);
    ctx.Store64(EntryAddr(new_root, 1), promoted->key);
    ctx.Store64(EntryAddr(new_root, 1) + 8, promoted->node);
    ctx.Store64(new_root, 2);
    Persist(ctx, new_root, kEntriesOffset + 2 * kEntrySize);
    root_ = new_root;
    ++height_;
    PersistentStore64(ctx, meta_, root_, PersistMode::kClwbSfence);
  }
  ++size_;
}

size_t FastFairTree::Scan(ThreadContext& ctx, uint64_t from, size_t max_results,
                          std::pair<uint64_t, uint64_t>* out) {
  if (max_results == 0) {
    return 0;
  }
  // Descend to the leaf covering `from`.
  Addr node = root_;
  while (IsLeaf(ctx, node) == 0) {
    const uint64_t count = Count(ctx, node);
    uint64_t idx = 0;
    for (uint64_t j = 1; j < count; ++j) {
      if (ctx.Load64(EntryAddr(node, j)) <= from) {
        idx = j;
      } else {
        break;
      }
    }
    node = ctx.Load64(EntryAddr(node, idx) + 8);
  }
  // Walk the sibling chain collecting keys >= from.
  size_t n = 0;
  while (node != 0 && n < max_results) {
    const uint64_t count = Count(ctx, node);
    for (uint64_t j = 0; j < count && n < max_results; ++j) {
      const uint64_t k = ctx.Load64(EntryAddr(node, j));
      if (k >= from) {
        out[n++] = {k, ctx.Load64(EntryAddr(node, j) + 8)};
      }
    }
    node = ctx.Load64(node + 16);  // leaf sibling pointer
  }
  return n;
}

bool FastFairTree::Get(ThreadContext& ctx, uint64_t key, uint64_t* value_out) {
  Addr node = root_;
  while (IsLeaf(ctx, node) == 0) {
    const uint64_t count = Count(ctx, node);
    uint64_t idx = 0;
    for (uint64_t j = 1; j < count; ++j) {
      if (ctx.Load64(EntryAddr(node, j)) <= key) {
        idx = j;
      } else {
        break;
      }
    }
    node = ctx.Load64(EntryAddr(node, idx) + 8);
  }
  const uint64_t count = Count(ctx, node);
  for (uint64_t j = 0; j < count; ++j) {
    if (ctx.Load64(EntryAddr(node, j)) == key) {
      if (value_out != nullptr) {
        *value_out = ctx.Load64(EntryAddr(node, j) + 8);
      }
      return true;
    }
  }
  return false;
}

bool FastFairTree::Update(ThreadContext& ctx, uint64_t key, uint64_t value) {
  Addr node = root_;
  while (IsLeaf(ctx, node) == 0) {
    const uint64_t count = Count(ctx, node);
    uint64_t idx = 0;
    for (uint64_t j = 1; j < count; ++j) {
      if (ctx.Load64(EntryAddr(node, j)) <= key) {
        idx = j;
      } else {
        break;
      }
    }
    node = ctx.Load64(EntryAddr(node, idx) + 8);
  }
  const uint64_t count = Count(ctx, node);
  for (uint64_t j = 0; j < count; ++j) {
    if (ctx.Load64(EntryAddr(node, j)) == key) {
      PersistentStore64(ctx, EntryAddr(node, j) + 8, value, PersistMode::kClwbSfence);
      return true;
    }
  }
  return false;
}

}  // namespace pmemsim
