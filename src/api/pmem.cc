#include "src/api/pmem.h"

#include <cstring>
#include <vector>

#include "src/common/check.h"
#include "src/persist/barrier.h"

namespace pmemsim {

PmRegion PmemMapFile(System& system, uint64_t size) {
  return system.AllocatePm(size, kPageSize);
}

bool PmemHasAutoFlush(const System& system) { return system.config().eadr_enabled; }

void PmemFlush(ThreadContext& cpu, Addr addr, size_t len) {
  FlushRange(cpu, addr, len);
}

void PmemDrain(ThreadContext& cpu) { cpu.Sfence(); }

void PmemMemcpyNodrain(ThreadContext& cpu, Addr dst, const void* src, size_t len) {
  if (len == 0) {
    return;
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(src);
  if (len < kPmemMovntThreshold) {
    // Through the caches, then flush.
    cpu.Write(dst, bytes, len);
    PmemFlush(cpu, dst, len);
    return;
  }
  // Streaming path: head/tail fragments via cached stores + flush, the
  // line-aligned body via non-temporal stores (as pmem_memcpy does).
  const Addr body_begin = AlignUp(dst, kCacheLineSize);
  const Addr body_end = (dst + len) & ~(kCacheLineSize - 1);
  if (body_begin > dst) {
    const size_t head = static_cast<size_t>(body_begin - dst);
    cpu.Write(dst, bytes, head);
    PmemFlush(cpu, dst, head);
  }
  if (body_end > body_begin) {
    cpu.NtWrite(body_begin, bytes + (body_begin - dst),
                static_cast<size_t>(body_end - body_begin));
  }
  if (dst + len > body_end) {
    const size_t tail = static_cast<size_t>(dst + len - body_end);
    cpu.Write(body_end, bytes + (body_end - dst), tail);
    PmemFlush(cpu, body_end, tail);
  }
}

void PmemMemcpyPersist(ThreadContext& cpu, Addr dst, const void* src, size_t len) {
  PmemMemcpyNodrain(cpu, dst, src, len);
  PmemDrain(cpu);
}

void PmemMemsetPersist(ThreadContext& cpu, Addr dst, int c, size_t len) {
  std::vector<uint8_t> buf(len, static_cast<uint8_t>(c));
  PmemMemcpyPersist(cpu, dst, buf.data(), len);
}

}  // namespace pmemsim
