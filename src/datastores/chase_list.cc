#include "src/datastores/chase_list.h"

#include "src/common/check.h"
#include "src/common/random.h"

namespace pmemsim {

namespace {

// Writes the pass's i-th pad word and puts it on the persist path. Strict
// persistency fences every element, epoch persistency every epoch_len-th.
void PersistPad(ThreadContext& ctx, Addr pad, uint64_t i, PersistMode mode,
                Persistency persistency, uint64_t epoch_len) {
  StoreAndFlush64(ctx, pad, i, mode);
  if (persistency == Persistency::kStrict ||
      (persistency == Persistency::kEpoch && (i + 1) % epoch_len == 0)) {
    PersistFence(ctx, mode);
  }
}

// Closes a relaxed pass, or an epoch pass's trailing epoch, with one sfence.
void ClosePass(ThreadContext& ctx, Persistency persistency) {
  if (persistency != Persistency::kStrict) {
    ctx.Sfence();
  }
}

}  // namespace

ChaseList::ChaseList(System* system, PmRegion region, bool sequential, uint64_t seed)
    : system_(system), region_(region), count_(region.size / kElementSize) {
  PMEMSIM_CHECK(system != nullptr);
  PMEMSIM_CHECK(count_ >= 2);
  PMEMSIM_CHECK(IsXPLineAligned(region.base));

  std::vector<uint64_t> perm(count_);
  for (uint64_t i = 0; i < count_; ++i) {
    perm[i] = i;
  }
  if (!sequential) {
    Rng rng(seed);
    rng.Shuffle(perm);
  }

  order_.reserve(count_);
  for (uint64_t i = 0; i < count_; ++i) {
    order_.push_back(region_.base + perm[i] * kElementSize);
  }
  // Link the cycle directly in the backing store (untimed construction).
  BackingStore& backing = system_->backing();
  for (uint64_t i = 0; i < count_; ++i) {
    backing.WriteU64(order_[i], order_[(i + 1) % count_]);
  }
  cursor_ = order_.front();
}

Cycles ChaseList::TraverseUpdate(ThreadContext& ctx, uint64_t elements, PersistMode mode,
                                 Persistency persistency, uint64_t epoch_len) {
  const Cycles start = ctx.clock();
  Addr element = cursor_;
  for (uint64_t i = 0; i < elements; ++i) {
    const Addr next = ctx.Load64(element);
    PersistPad(ctx, element + kPadOffset, i, mode, persistency, epoch_len);
    element = next;
  }
  ClosePass(ctx, persistency);
  cursor_ = element;
  return ctx.clock() - start;
}

Cycles ChaseList::TraverseRead(ThreadContext& ctx, uint64_t elements) {
  const Cycles start = ctx.clock();
  Addr element = cursor_;
  for (uint64_t i = 0; i < elements; ++i) {
    element = ctx.Load64(element);
  }
  cursor_ = element;
  return ctx.clock() - start;
}

Cycles ChaseList::PureWrite(ThreadContext& ctx, uint64_t elements, PersistMode mode,
                            Persistency persistency, uint64_t epoch_len) {
  const Cycles start = ctx.clock();
  for (uint64_t i = 0; i < elements; ++i) {
    PersistPad(ctx, order_[(cursor_index_ + i) % count_] + kPadOffset, i, mode, persistency,
               epoch_len);
  }
  ClosePass(ctx, persistency);
  cursor_index_ = (cursor_index_ + elements) % count_;
  return ctx.clock() - start;
}

}  // namespace pmemsim
