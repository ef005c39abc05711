#include "src/persist/barrier.h"

namespace pmemsim {

void FlushRange(ThreadContext& ctx, Addr addr, uint64_t len) {
  for (Addr line = CacheLineBase(addr); line < addr + len; line += kCacheLineSize) {
    ctx.Clwb(line);
  }
}

void Persist(ThreadContext& ctx, Addr addr, uint64_t len) {
  FlushRange(ctx, addr, len);
  ctx.Sfence();
}

const char* PersistModeName(PersistMode mode) {
  static constexpr const char* kNames[] = {"clwb+sfence", "clwb+mfence", "nt-store+sfence",
                                           "nt-store+mfence"};
  return kNames[static_cast<int>(mode)];
}

void StoreAndFlush64(ThreadContext& ctx, Addr addr, uint64_t value, PersistMode mode) {
  if (UsesClwb(mode)) {
    ctx.Store64(addr, value);
    ctx.Clwb(addr);
  } else {
    ctx.NtStore64(addr, value);
  }
}

void PersistFence(ThreadContext& ctx, PersistMode mode) {
  if (UsesMfence(mode)) {
    ctx.Mfence();
  } else {
    ctx.Sfence();
  }
}

void PersistentStore64(ThreadContext& ctx, Addr addr, uint64_t value, PersistMode mode) {
  StoreAndFlush64(ctx, addr, value, mode);
  PersistFence(ctx, mode);
}

}  // namespace pmemsim
