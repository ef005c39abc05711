#include "src/persist/barrier.h"

namespace pmemsim {

void FlushRange(ThreadContext& ctx, Addr addr, uint64_t len) {
  for (Addr line = CacheLineBase(addr); line < addr + len; line += kCacheLineSize) {
    ctx.Clwb(line);
  }
}

void Persist(ThreadContext& ctx, Addr addr, uint64_t len, bool use_mfence) {
  FlushRange(ctx, addr, len);
  if (use_mfence) {
    ctx.Mfence();
  } else {
    ctx.Sfence();
  }
}

void PersistentStore64(ThreadContext& ctx, Addr addr, uint64_t value, PersistMode mode) {
  if (UsesClwb(mode)) {
    ctx.Store64(addr, value);
    ctx.Clwb(addr);
  } else {
    ctx.NtStore64(addr, value);
  }
  if (UsesMfence(mode)) {
    ctx.Mfence();
  } else {
    ctx.Sfence();
  }
}

}  // namespace pmemsim
