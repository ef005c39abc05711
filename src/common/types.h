// Core value types and address arithmetic shared by every pmemsim subsystem.
//
// The simulator models a single-socket (optionally two-node) physical address
// space. All latencies are expressed in CPU cycles of the simulated platform.

#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <cstddef>
#include <cstdint>

namespace pmemsim {

// A simulated physical address (byte granularity).
using Addr = uint64_t;

// A point in simulated time or a duration, in CPU cycles.
using Cycles = uint64_t;

// CPU cacheline granularity: the unit of every CPU<->iMC transfer.
inline constexpr uint64_t kCacheLineSize = 64;

// 3D-Xpoint media access granularity (an "XPLine"): the unit of every
// on-DIMM-buffer<->media transfer. One XPLine holds four cachelines.
inline constexpr uint64_t kXPLineSize = 256;

inline constexpr uint64_t kLinesPerXPLine = kXPLineSize / kCacheLineSize;

// Sparse backing-store page size (also the PM interleave granularity used by
// the platforms the paper evaluates).
inline constexpr uint64_t kPageSize = 4096;

inline constexpr Addr CacheLineBase(Addr a) { return a & ~(kCacheLineSize - 1); }
inline constexpr Addr XPLineBase(Addr a) { return a & ~(kXPLineSize - 1); }
inline constexpr Addr PageBase(Addr a) { return a & ~(kPageSize - 1); }

// Index of the cacheline within its XPLine, in [0, 4).
inline constexpr uint64_t LineIndexInXPLine(Addr a) {
  return (a & (kXPLineSize - 1)) / kCacheLineSize;
}

inline constexpr bool IsCacheLineAligned(Addr a) { return (a & (kCacheLineSize - 1)) == 0; }
inline constexpr bool IsXPLineAligned(Addr a) { return (a & (kXPLineSize - 1)) == 0; }

inline constexpr uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) & ~(align - 1);
}

inline constexpr uint64_t KiB(uint64_t v) { return v << 10; }
inline constexpr uint64_t MiB(uint64_t v) { return v << 20; }
inline constexpr uint64_t GiB(uint64_t v) { return v << 30; }

// Memory device class backing a region of the address space.
enum class MemoryKind : uint8_t {
  kOptane,  // Optane DCPMM (App Direct)
  kDram,    // conventional DRAM
};

// Optane DCPMM generation: a preset's label (PlatformConfig::generation, the
// trace header). No model branches on it: buffer sizing, write-back and clwb
// policy are PlatformConfig fields, and PlatformFor(gen) only picks a preset.
enum class Generation : uint8_t {
  kG1,  // 100-series Optane, Cascade Lake-era platform
  kG2,  // 200-series Optane, Ice Lake-era platform
};

// NUMA node of a thread or region. The paper's testbeds have two sockets with
// all DIMMs on node 0; "remote" experiments run the thread on the other node.
using NodeId = uint8_t;

}  // namespace pmemsim

#endif  // SRC_COMMON_TYPES_H_
