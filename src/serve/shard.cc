#include "src/serve/shard.h"

#include <cstring>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace pmemsim {
namespace {

uint32_t CcehDepthFor(uint64_t keys) {
  // One segment holds 1024 slots; start with enough segments that the preload
  // does not spend its whole life splitting (splits still grow it as needed).
  uint32_t depth = 4;
  while ((uint64_t{1} << depth) * Cceh::kBucketsPerSegment * Cceh::kSlotsPerBucket < keys &&
         depth < 24) {
    ++depth;
  }
  return depth;
}

}  // namespace

const char* StoreName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kCceh:
      return "cceh";
    case StoreKind::kFastFair:
      return "fastfair";
    case StoreKind::kFlatLog:
      return "flatlog";
  }
  return "?";
}

std::optional<StoreKind> StoreByName(const std::string& name) {
  if (name == "cceh") {
    return StoreKind::kCceh;
  }
  if (name == "fastfair") {
    return StoreKind::kFastFair;
  }
  if (name == "flatlog") {
    return StoreKind::kFlatLog;
  }
  return std::nullopt;
}

const char* LoopModeName(LoopMode mode) {
  return mode == LoopMode::kClosed ? "closed" : "open";
}

ShardStore::ShardStore(System* system, StoreKind kind, uint64_t preload_keys,
                       uint64_t append_budget, ThreadContext& loader)
    : kind_(kind) {
  switch (kind_) {
    case StoreKind::kCceh:
      cceh_ = std::make_unique<Cceh>(system, loader, CcehDepthFor(preload_keys),
                                     MemoryKind::kOptane);
      break;
    case StoreKind::kFastFair:
      tree_ = std::make_unique<FastFairTree>(system, loader);
      break;
    case StoreKind::kFlatLog: {
      // Every update/insert/rmw appends one record, so size the log for the
      // preload plus the full op budget (rounded up to whole batches): no
      // append can be refused, and Update/Insert CHECK that none is.
      uint64_t slots = preload_keys + append_budget + FlatLog::kSlotsPerBatch;
      slots = (slots + FlatLog::kSlotsPerBatch - 1) / FlatLog::kSlotsPerBatch *
              FlatLog::kSlotsPerBatch;
      flat_ = std::make_unique<FlatLog>(system, system->AllocatePm(slots * FlatLog::kSlotSize));
      break;
    }
  }
}

bool ShardStore::Get(ThreadContext& ctx, uint64_t key, uint64_t* value_out) {
  switch (kind_) {
    case StoreKind::kCceh:
      return cceh_->Get(ctx, key, value_out);
    case StoreKind::kFastFair:
      return tree_->Get(ctx, key, value_out);
    case StoreKind::kFlatLog: {
      uint8_t buf[FlatLog::kMaxPayload] = {};
      uint32_t len = 0;
      if (!flat_->Get(ctx, key, buf, &len)) {
        return false;
      }
      std::memcpy(value_out, buf, sizeof(*value_out));
      return true;
    }
  }
  return false;
}

bool ShardStore::Update(ThreadContext& ctx, uint64_t key, uint64_t value) {
  switch (kind_) {
    case StoreKind::kCceh:
      cceh_->Insert(ctx, key, value);  // CCEH insert updates in place
      return true;
    case StoreKind::kFastFair:
      return tree_->Update(ctx, key, value);
    case StoreKind::kFlatLog:
      PMEMSIM_CHECK(flat_->Put(ctx, key, &value, sizeof(value)));
      return true;
  }
  return true;
}

void ShardStore::Insert(ThreadContext& ctx, uint64_t key, uint64_t value) {
  switch (kind_) {
    case StoreKind::kCceh:
      cceh_->Insert(ctx, key, value);
      break;
    case StoreKind::kFastFair:
      tree_->Insert(ctx, key, value, BTreeUpdateMode::kInPlace);
      break;
    case StoreKind::kFlatLog:
      PMEMSIM_CHECK(flat_->Put(ctx, key, &value, sizeof(value)));
      break;
  }
}

void ShardStore::TreeScan(ThreadContext& ctx, uint64_t from, uint32_t len) {
  PMEMSIM_DCHECK(ordered());
  std::vector<std::pair<uint64_t, uint64_t>> out(len);
  tree_->Scan(ctx, from, len, out.data());
}

void ShardStore::FlushPreload(ThreadContext& ctx) {
  if (flat_ != nullptr) {
    flat_->Flush(ctx);
  }
}

}  // namespace pmemsim
