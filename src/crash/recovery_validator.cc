#include "src/crash/recovery_validator.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/common/random.h"
#include "src/datastores/cceh.h"
#include "src/datastores/fast_fair.h"
#include "src/datastores/flat_log.h"
#include "src/persist/redo_log.h"
#include "src/persist/undo_log.h"

namespace pmemsim {

namespace {

std::string U64(uint64_t v) { return std::to_string(v); }

}  // namespace

void ValidateCceh(const BackingStore& image, const CcehExpectation& exp, ValidationReport* report) {
  const uint64_t dir_entries = 1ull << exp.global_depth;

  // Every acked insert must be found by the published probe procedure.
  for (const auto& acked : exp.acked) {
    const uint64_t key = acked.first;
    const uint64_t value = acked.second;
    const uint64_t hash = Mix64(key);
    const uint64_t dir_index = exp.global_depth == 0 ? 0 : hash >> (64 - exp.global_depth);
    const Addr segment = image.ReadU64(exp.directory + dir_index * 8);
    const uint64_t bucket = hash & (Cceh::kBucketsPerSegment - 1);
    bool found = false;
    uint64_t got = 0;
    for (uint32_t probe = 0; probe < Cceh::kLinearProbeBuckets && !found; ++probe) {
      const uint64_t b = (bucket + probe) & (Cceh::kBucketsPerSegment - 1);
      const Addr bucket_addr = segment + Cceh::kSegmentHeaderSize + b * kCacheLineSize;
      for (uint64_t slot = 0; slot < Cceh::kSlotsPerBucket; ++slot) {
        const Addr slot_addr = bucket_addr + slot * Cceh::kSlotSize;
        if (image.ReadU64(slot_addr) == key) {
          got = image.ReadU64(slot_addr + 8);
          found = true;
          break;
        }
      }
    }
    report->Check(found, [&] { return "cceh: acked key " + U64(key) + " not found"; });
    if (found) {
      report->Check(got == value, [&] {
        return "cceh: key " + U64(key) + " has value " + U64(got) + ", want " + U64(value);
      });
    }
  }

  // Phantom scan: every non-empty slot of every live segment must hold an
  // attempted key. Segments are deduplicated and sorted so message order is
  // deterministic.
  std::vector<Addr> segments;
  segments.reserve(dir_entries);
  for (uint64_t i = 0; i < dir_entries; ++i) {
    segments.push_back(image.ReadU64(exp.directory + i * 8));
  }
  std::sort(segments.begin(), segments.end());
  segments.erase(std::unique(segments.begin(), segments.end()), segments.end());
  for (const Addr segment : segments) {
    for (uint64_t b = 0; b < Cceh::kBucketsPerSegment; ++b) {
      const Addr bucket_addr = segment + Cceh::kSegmentHeaderSize + b * kCacheLineSize;
      for (uint64_t slot = 0; slot < Cceh::kSlotsPerBucket; ++slot) {
        const uint64_t key = image.ReadU64(bucket_addr + slot * Cceh::kSlotSize);
        if (key != Cceh::kInvalidKey && !exp.attempted.Contains(key)) {
          report->Fail(
              [&] { return "cceh: phantom key " + U64(key) + " in segment " + U64(segment); });
        }
      }
    }
  }
}

void ValidateFastFair(const BackingStore& image, const FastFairExpectation& exp,
                      ValidationReport* report) {
  // Descend entry-0 children to the leftmost leaf. Entry 0 of an internal
  // node is never shifted (insert positions are >= 1 past the kMinKey
  // sentinel), so this path is stable across in-flight insertions.
  Addr node = image.ReadU64(exp.meta);
  for (int depth = 0; image.ReadU64(node + 8) == 0; ++depth) {
    if (depth > 64) {
      report->Fail([] { return std::string("fastfair: descent exceeded 64 levels"); });
      return;
    }
    node = image.ReadU64(FastFairTree::kEntriesOffset + node + 8);
  }

  // Walk the leaf sibling chain left to right.
  std::unordered_map<uint64_t, uint64_t> found;  // first occurrence wins
  uint64_t nodes = 0;
  uint64_t prev_key = 0;
  bool have_prev = false;
  while (node != 0) {
    if (++nodes > exp.max_nodes) {
      report->Fail([&] {
        return "fastfair: leaf chain exceeded " + U64(exp.max_nodes) + " nodes (cycle?)";
      });
      break;
    }
    const uint64_t count = image.ReadU64(node);
    if (count > FastFairTree::kMaxEntries) {
      report->Fail(
          [&] { return "fastfair: node " + U64(node) + " count " + U64(count) + " out of range"; });
      break;
    }
    uint64_t keys[FastFairTree::kMaxEntries];
    uint64_t vals[FastFairTree::kMaxEntries];
    bool valid[FastFairTree::kMaxEntries];
    for (uint64_t i = 0; i < count; ++i) {
      const Addr entry = node + FastFairTree::kEntriesOffset + i * FastFairTree::kEntrySize;
      keys[i] = image.ReadU64(entry);
      vals[i] = image.ReadU64(entry + 8);
    }
    // FAST&FAIR's transient-state filter. Rule 1: an entry whose value
    // duplicates its left neighbor's is a mid-shift copy (the left one is
    // authoritative). Rule 2: a value duplicating the RIGHT neighbor under a
    // different key is the not-yet-overwritten source of a shift. Rule 3: of
    // two surviving entries with the SAME key, the right one is authoritative
    // — the left is a torn insert that kept the old key word.
    for (uint64_t i = 0; i < count; ++i) {
      valid[i] = true;
      if (i > 0 && vals[i] == vals[i - 1]) {
        valid[i] = false;
      } else if (i + 1 < count && vals[i] == vals[i + 1] && keys[i] != keys[i + 1]) {
        valid[i] = false;
      }
    }
    for (uint64_t i = 0; i + 1 < count; ++i) {
      if (valid[i] && valid[i + 1] && keys[i] == keys[i + 1]) {
        valid[i] = false;
      }
    }
    for (uint64_t i = 0; i < count; ++i) {
      if (!valid[i]) {
        continue;
      }
      // An exact (key, value) duplicate of an entry already seen is the
      // link-first split transient: the right sibling is linked while the
      // left node still holds the (identical) upper half. Readers dedup
      // these, so they are exempt from the sortedness check.
      auto prior = found.find(keys[i]);
      if (prior != found.end() && prior->second == vals[i]) {
        continue;
      }
      if (have_prev) {
        report->Check(keys[i] >= prev_key, [&] {
          return "fastfair: key " + U64(keys[i]) + " out of order after " + U64(prev_key);
        });
      }
      prev_key = keys[i];
      have_prev = true;
      const uint64_t* planned = exp.attempted.Find(keys[i]);
      if (planned == nullptr) {
        report->Fail([&] { return "fastfair: phantom key " + U64(keys[i]); });
      } else {
        report->Check(*planned == vals[i], [&] {
          return "fastfair: key " + U64(keys[i]) + " has value " + U64(vals[i]) + ", want " +
                 U64(*planned);
        });
        found.emplace(keys[i], vals[i]);
      }
    }
    node = image.ReadU64(node + 16);  // sibling pointer
  }

  for (const auto& acked : exp.acked) {
    const uint64_t key = acked.first;
    const uint64_t value = acked.second;
    auto it = found.find(key);
    report->Check(it != found.end(),
                  [&] { return "fastfair: acked key " + U64(key) + " not found"; });
    if (it != found.end()) {
      report->Check(it->second == value, [&] {
        return "fastfair: acked key " + U64(key) + " has value " + U64(it->second) + ", want " +
               U64(value);
      });
    }
  }
}

void ValidateFlatLog(System* fresh, ThreadContext& ctx, const FlatLogExpectation& exp,
                     ValidationReport* report) {
  // Acked (batch-flushed) slots must match the staged images byte for byte.
  for (uint64_t slot = 0; slot < exp.acked_slots; ++slot) {
    uint8_t got[FlatLog::kSlotSize];
    ctx.Read(exp.region.base + slot * FlatLog::kSlotSize, got, sizeof(got));
    report->Check(std::memcmp(got, exp.slot_images[slot].data(), sizeof(got)) == 0,
                  [&] { return "flatlog: acked slot " + U64(slot) + " image mismatch"; });
  }

  // The unacked tail: torn nt-store batches over fresh (zero) slots. A slot
  // that parses as a record must carry an attempted key, or key 0 when the
  // key word itself was lost.
  const uint64_t capacity = exp.region.size / FlatLog::kSlotSize;
  for (uint64_t slot = exp.acked_slots; slot < capacity; ++slot) {
    uint8_t raw[FlatLog::kSlotSize];
    ctx.Read(exp.region.base + slot * FlatLog::kSlotSize, raw, sizeof(raw));
    uint32_t magic = 0, len = 0;
    uint64_t key = 0;
    std::memcpy(&key, raw, sizeof(key));
    std::memcpy(&len, raw + 8, sizeof(len));
    std::memcpy(&magic, raw + 12, sizeof(magic));
    if (magic != FlatLog::kRecordMagic) {
      continue;
    }
    if (key != 0 && !exp.attempted.Contains(key)) {
      report->Fail(
          [&] { return "flatlog: phantom key " + U64(key) + " in unacked slot " + U64(slot); });
    }
  }

  // Real recovery: rebuild the index and point-read every acked key.
  FlatLog log(fresh, exp.region);
  log.Recover(ctx);
  for (const auto& acked : exp.acked_kv) {
    const uint64_t key = acked.first;
    const std::vector<uint8_t>& payload = acked.second;
    uint8_t out[FlatLog::kMaxPayload];
    uint32_t len = 0;
    const bool ok = log.Get(ctx, key, out, &len);
    report->Check(ok, [&] { return "flatlog: acked key " + U64(key) + " missing after Recover"; });
    if (ok) {
      report->Check(len == payload.size() && std::memcmp(out, payload.data(), len) == 0,
                    [&] { return "flatlog: acked key " + U64(key) + " payload mismatch"; });
    }
  }
}

void ValidateRedo(System* fresh, ThreadContext& ctx, const RedoExpectation& exp,
                  ValidationReport* report) {
  RedoLog log(fresh, exp.log_region);
  log.Recover(ctx);

  uint64_t took_new = 0, took_old = 0;
  for (size_t i = 0; i < exp.targets.size(); ++i) {
    const uint64_t got = ctx.Load64(exp.targets[i]);
    const uint64_t old_value = exp.committed[i];
    auto it = std::find_if(exp.inflight.begin(), exp.inflight.end(),
                           [i](const auto& p) { return p.first == i; });
    if (it == exp.inflight.end()) {
      report->Check(got == old_value, [&] {
        return "redo: target " + U64(i) + " holds " + U64(got) + ", want committed " +
               U64(old_value);
      });
      continue;
    }
    if (got == old_value) {
      ++took_old;
      ++report->checks;
    } else if (exp.inflight_reached_commit && got == it->second) {
      ++took_new;
      ++report->checks;
    } else {
      report->Fail([&] {
        return "redo: in-flight target " + U64(i) + " holds " + U64(got) + ", want " +
               U64(old_value) + (exp.inflight_reached_commit ? " or " + U64(it->second) : "");
      });
    }
  }
  // The commit record covers the whole group: recovery must replay all of
  // the in-flight transaction or none of it.
  report->Check(took_new == 0 || took_old == 0, [&] {
    return "redo: in-flight transaction partially applied (" + U64(took_new) + " new, " +
           U64(took_old) + " old)";
  });
}

void ValidateUndo(System* fresh, ThreadContext& ctx, const UndoExpectation& exp,
                  ValidationReport* report) {
  Transaction tx(fresh, exp.log_region);
  tx.Recover(ctx);

  std::vector<uint64_t> image(exp.fields.size());
  for (size_t i = 0; i < exp.fields.size(); ++i) {
    image[i] = ctx.Load64(exp.fields[i]);
  }
  std::vector<uint64_t> state_b = exp.committed;
  for (const auto& [index, value] : exp.inflight) {
    state_b[index] = value;
  }
  const bool is_a = image == exp.committed;
  const bool is_b = exp.inflight_reached_commit && image == state_b;
  report->Check(is_a || is_b,
                [] { return std::string("undo: recovered image is neither state A nor state B"); });
  if (!(is_a || is_b)) {
    for (size_t i = 0; i < image.size(); ++i) {
      if (image[i] != exp.committed[i] && image[i] != state_b[i]) {
        report->Fail([&] {
          return "undo: field " + U64(i) + " holds " + U64(image[i]) + ", want " +
                 U64(exp.committed[i]) + " or " + U64(state_b[i]);
        });
      }
    }
  }
}

}  // namespace pmemsim
