// Platform configuration: every tunable constant of the simulated machine.
//
// This file is the one table of those constants. Each value is written once:
//   * the G1 testbed (dual Xeon Gold 6320 @ 2.1 GHz + 100-series Optane DCPMM)
//     is the field-list defaults below, so G1Platform() only names it;
//   * G2Platform() (dual Xeon Gold 5317 @ 3.0 GHz + 200-series Optane DCPMM)
//     assigns only the values that differ from G1;
//   * each component takes its slice (WpqConfig, WriteBufferConfig, ...)
//     directly instead of copying fields into a config of its own.
//
// Each struct's members are declared by its field list, X(type, member,
// default), so ForEachField visits every leaf with no second list to keep:
// the trace fingerprint and the preset diffs are rendered from it.
//
// Latency constants are calibrated so the paper's anchor measurements hold
// (see DESIGN.md §1); every structural parameter (buffer sizes, policies,
// granularities) comes directly from the paper's findings.

#ifndef SRC_COMMON_CONFIG_H_
#define SRC_COMMON_CONFIG_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/types.h"

// A config struct's body from its field list: the members, in list order,
// and VisitFields(self, visit), which calls visit("member", self.member) on
// each. VisitFields binds the members by position, so a member declared
// outside the list fails the build.
#define PMEMSIM_CONFIG_FIELDS(LIST)                    \
  LIST(PMEMSIM_CONFIG_MEMBER)                          \
  template <typename Self, typename Visit>             \
  static void VisitFields(Self& self, Visit&& visit) { \
    auto& [PMEMSIM_CONFIG_BINDINGS(LIST)] = self;      \
    LIST(PMEMSIM_CONFIG_VISIT)                         \
  }
#define PMEMSIM_CONFIG_MEMBER(type, member, ...) type member = __VA_ARGS__;
#define PMEMSIM_CONFIG_BINDINGS(LIST) \
  PMEMSIM_CONFIG_APPLY(PMEMSIM_CONFIG_TAIL, LIST(PMEMSIM_CONFIG_BINDING))
#define PMEMSIM_CONFIG_BINDING(type, member, ...) , member##_
#define PMEMSIM_CONFIG_VISIT(type, member, ...) visit(#member, member##_);
#define PMEMSIM_CONFIG_APPLY(macro, ...) macro(__VA_ARGS__)
#define PMEMSIM_CONFIG_TAIL(first, ...) __VA_ARGS__

namespace pmemsim {

// One CPU cache level.
#define PMEMSIM_CACHE_LEVEL_FIELDS(X) \
  X(uint64_t, size_bytes, 0)          \
  X(uint32_t, ways, 8)                \
  X(Cycles, hit_latency, 4)
struct CacheLevelConfig {
  PMEMSIM_CONFIG_FIELDS(PMEMSIM_CACHE_LEVEL_FIELDS)
};

// Xeon Gold 6320: 32 KB L1d, 1 MB L2, 27.5 MB L3.
#define PMEMSIM_CACHE_FIELDS(X)                                                 \
  X(CacheLevelConfig, l1, {KiB(32), 8, 4})                                      \
  X(CacheLevelConfig, l2, {MiB(1), 16, 14})                                     \
  X(CacheLevelConfig, l3, {MiB(27) + KiB(512), 11, 48})                         \
  /* G2 platforms retain the cacheline (clean) after clwb; G1 invalidates it */ \
  /* (G1 clwb behaves like clflushopt). */                                      \
  X(bool, clwb_retains_line, false)                                             \
  /* Cycles between a clwb retiring and its cache-side effect (invalidation */  \
  /* on G1) plus its dispatch toward the iMC becoming architecturally */        \
  /* visible to younger, unordered loads. Models the out-of-order window */     \
  /* that lets a load under sfence still hit the cache for very recently */     \
  /* flushed lines. */                                                          \
  X(Cycles, clwb_dispatch_delay, 420)                                           \
  /* Default prefetcher enables (each is runtime-toggleable as with the BIOS */ \
  /* switches on the testbeds). */                                              \
  X(bool, adjacent_line_prefetch, true)                                         \
  X(bool, dcu_streamer_prefetch, true)                                          \
  X(bool, l2_stream_prefetch, true)                                             \
  /* How many lines ahead the L2 stream prefetcher runs once a stream locks. */ \
  X(uint32_t, stream_prefetch_degree, 2)
struct CacheConfig {
  PMEMSIM_CONFIG_FIELDS(PMEMSIM_CACHE_FIELDS)
};

// Replacement policy knobs (the shipped hardware behaves FIFO + exclusive and
// random-victim, per §3.1/§3.2; the alternatives exist for the ablation
// benches).
enum class ReadBufferEviction : uint8_t { kFifo, kLru };
enum class WriteBufferEviction : uint8_t { kRandom, kOldest };

// On-DIMM write-combining buffer (paper §3.2).
#define PMEMSIM_WRITE_BUFFER_FIELDS(X)                                          \
  X(WriteBufferEviction, eviction, WriteBufferEviction::kRandom)                \
  X(uint64_t, capacity_bytes, KiB(16))                                          \
  /* Entries reserved for write-back staging; usable capacity for partially */  \
  /* written XPLines is (capacity_bytes/256 - reserve). 16 on G1 yields the */  \
  /* observed 12 KB knee. */                                                    \
  X(uint32_t, partial_reserve_entries, 16)                                      \
  /* G1 writes fully-modified XPLines back to media periodically (~5000 */      \
  /* cycles); G2 disables this. */                                              \
  X(bool, periodic_full_writeback, true)                                        \
  X(Cycles, full_writeback_period, 5000)                                        \
  /* G1 evicts in a batch when the buffer overflows (sharp hit-ratio cliff); */ \
  /* G2 evicts one random victim at a time (graceful decay). */                 \
  X(bool, batch_evict, true)                                                    \
  /* Fraction of occupied entries retained after a batch eviction. */           \
  X(double, batch_evict_keep_fraction, 0.5)
struct WriteBufferConfig {
  PMEMSIM_CONFIG_FIELDS(PMEMSIM_WRITE_BUFFER_FIELDS)
};

// Optane DIMM internals (per DIMM): a 128 GB 100-series DCPMM.
#define PMEMSIM_OPTANE_DIMM_FIELDS(X)                                           \
  /* --- on-DIMM read buffer (paper §3.1): 16 KB on G1, 22 KB on G2 --- */      \
  X(uint64_t, read_buffer_bytes, KiB(16))                                       \
  X(ReadBufferEviction, read_buffer_eviction, ReadBufferEviction::kFifo)        \
  X(bool, read_buffer_exclusive, true)                                          \
  X(WriteBufferConfig, write_buffer, {})                                        \
  /* --- service latencies (cycles) --- */                                      \
  /* DDR-T round trip hitting an on-DIMM buffer. */                             \
  X(Cycles, buffer_hit_latency, 90)                                             \
  /* 256 B XPLine fetch from 3D-Xpoint media. */                                \
  X(Cycles, media_read_latency, 420)                                            \
  /* 256 B XPLine program to media. */                                          \
  X(Cycles, media_write_latency, 480)                                           \
  /* Media access ports: limits concurrency (reads scale, writes do not). */    \
  X(uint32_t, media_read_ports, 12)                                             \
  X(uint32_t, media_write_ports, 4)                                             \
  /* --- address indirection table (AIT) --- */                                 \
  /* On-DIMM AIT cache covers this much of the media before translations */     \
  /* miss. */                                                                   \
  X(uint64_t, ait_cache_coverage_bytes, MiB(16))                                \
  X(Cycles, ait_miss_penalty, 210)                                              \
  /* --- asynchronous write pipeline (DDR-T; paper §3.5) --- */                 \
  /* Delay between a write being accepted at the WPQ and its value becoming */  \
  /* readable on the DIMM. Reads to a line with an in-flight persist stall */   \
  /* until it elapses: the source of read-after-persist latency. */             \
  X(Cycles, write_visible_delay, 2100)                                          \
  /* G1 enforces same-address ordering at the DIMM: a second persist to a */    \
  /* cacheline arriving within `same_line_stall_window` of the previous one */  \
  /* stalls until the window elapses (the repeated-flush penalty behind the */  \
  /* B+-tree case study, §4.2). G2 merges same-line writes and does not */      \
  /* stall. */                                                                  \
  X(bool, same_line_flush_stall, true)                                          \
  X(Cycles, same_line_stall_window, 550)                                        \
  /* Portion of a read-after-persist stall hidden by the out-of-order window */ \
  /* when the load is NOT ordered by a full fence (clwb+sfence leaves loads */  \
  /* free to issue early; clwb+mfence exposes the whole stall — Fig. 7). */     \
  X(Cycles, unordered_read_overlap, 800)
struct OptaneDimmConfig {
  PMEMSIM_CONFIG_FIELDS(PMEMSIM_OPTANE_DIMM_FIELDS)
};

// Conventional DRAM DIMM model.
#define PMEMSIM_DRAM_FIELDS(X)                                   \
  X(Cycles, load_latency, 190)                                   \
  /* DDR4 writes are synchronous; the visible delay is short. */ \
  X(Cycles, write_visible_delay, 420)                            \
  X(Cycles, unordered_read_overlap, 380)                         \
  X(uint32_t, ports, 12)                                         \
  X(Cycles, port_service, 30)
struct DramConfig {
  PMEMSIM_CONFIG_FIELDS(PMEMSIM_DRAM_FIELDS)
};

// Per-DIMM write pending queue inside the iMC's ADR domain.
#define PMEMSIM_WPQ_FIELDS(X)                       \
  /* Queue depth. */                                \
  X(uint32_t, entries, 16)                          \
  /* Store/flush acceptance into the ADR domain. */ \
  X(Cycles, accept_latency, 120)                    \
  /* WPQ -> DIMM write-buffer transfer. */          \
  X(Cycles, drain_latency, 30)
struct WpqConfig {
  PMEMSIM_CONFIG_FIELDS(PMEMSIM_WPQ_FIELDS)
};

// Integrated memory controller.
#define PMEMSIM_IMC_FIELDS(X)                    \
  X(WpqConfig, wpq, {})                          \
  /* iMC processing per read request. */         \
  X(Cycles, read_overhead, 25)                   \
  /* 4 KB PM interleave. */                      \
  X(uint64_t, interleave_granularity, kPageSize) \
  /* One-way socket interconnect hop. */         \
  X(Cycles, numa_hop_latency, 180)
struct ImcConfig {
  PMEMSIM_CONFIG_FIELDS(PMEMSIM_IMC_FIELDS)
};

// The testbeds' Optane DIMM count (six, interleaved at 4 KB). A System built
// with a DIMM count of 0 gets this many.
inline constexpr uint32_t kTestbedOptaneDimms = 6;

// Core execution-model constants.
#define PMEMSIM_CPU_FIELDS(X)                                                  \
  /* Outstanding (not yet WPQ-accepted) flushes/nt-stores a thread may have */ \
  /* before issuing another stalls — the store-buffer back-pressure that */    \
  /* bounds relaxed-persistency throughput. */                                 \
  X(uint32_t, store_buffer_depth, 48)                                          \
  /* sfence/mfence pipeline cost beyond waiting. */                            \
  X(Cycles, fence_cost, 8)                                                     \
  /* Retire cost of a cached store. */                                         \
  X(Cycles, store_issue_cost, 2)                                               \
  /* A store that misses the caches is posted: the RFO runs in the */          \
  /* background (bandwidth is consumed, the line fills) while the pipeline */  \
  /* only pays this store-buffer cost. Write latency staying flat across */    \
  /* WSS (Fig. 8c) rests on this. */                                           \
  X(Cycles, store_miss_post_cost, 18)                                          \
  X(Cycles, nt_store_issue_cost, 6)                                            \
  /* clwb/clflushopt retire cost. */                                           \
  X(Cycles, flush_issue_cost, 2)                                               \
  /* Per-64 B AVX load+store pair (Algorithm 2). */                            \
  X(Cycles, simd_copy_cost, 14)
struct CpuConfig {
  PMEMSIM_CONFIG_FIELDS(PMEMSIM_CPU_FIELDS)
};

// A default-constructed PlatformConfig is the G1 testbed, unnamed.
#define PMEMSIM_PLATFORM_FIELDS(X)                                           \
  X(std::string, name, {})                                                   \
  X(Generation, generation, Generation::kG1)                                 \
  X(double, cpu_ghz, 2.1)                                                    \
  X(CacheConfig, cache, {})                                                  \
  X(CpuConfig, cpu, {})                                                      \
  X(OptaneDimmConfig, optane, {})                                            \
  X(DramConfig, dram, {})                                                    \
  X(ImcConfig, imc, {})                                                      \
  /* Extended ADR: CPU caches are persistent, no flushes needed. The */      \
  /* paper's G2 testbed runs with eADR disabled; the g2-eadr preset turns */ \
  /* it on (§6). */                                                          \
  X(bool, eadr_enabled, false)
struct PlatformConfig {
  PMEMSIM_CONFIG_FIELDS(PMEMSIM_PLATFORM_FIELDS)
};

namespace config_internal {

// Appends each leaf under `node` to `path` in turn and visits it; a member
// of class type other than std::string is a config struct and recursed into.
template <typename Node, typename Visit>
void VisitLeaves(Node& node, std::string& path, Visit& visit) {
  using Plain = std::remove_const_t<Node>;
  if constexpr (std::is_class_v<Plain> && !std::is_same_v<Plain, std::string>) {
    const size_t parent = path.size();
    Plain::VisitFields(node, [&](const char* member, auto& child) {
      path.resize(parent);
      if (parent != 0) {
        path += '.';
      }
      path += member;
      VisitLeaves(child, path, visit);
    });
    path.resize(parent);
  } else {
    visit(std::string_view(path), node);
  }
}

}  // namespace config_internal

// Calls visit(path, leaf) on every leaf of `config` (a PlatformConfig or one
// of its slices, const or not) in declaration order. `path` is the leaf's
// dotted member path ("optane.write_buffer.eviction"); `leaf` is a reference
// to the member, const when `config` is.
template <typename Config, typename Visit>
void ForEachField(Config& config, Visit&& visit) {
  std::string path;
  config_internal::VisitLeaves(config, path, visit);
}

// Every PlatformConfig leaf as "path=value", in ForEachField order: integers,
// bools (0/1) and enums (their number) in decimal, doubles so that they
// round-trip (%.17g), strings verbatim. The trace fingerprint hashes this
// text; two configs differ exactly in the paths whose texts differ.
std::vector<std::string> FieldTexts(const PlatformConfig& config);

// Paper testbed presets.
PlatformConfig G1Platform();
PlatformConfig G2Platform();

// The platform the paper could not yet measure (§6): G2 with eADR enabled —
// CPU caches inside the persistence domain, cacheline flushes unnecessary.
PlatformConfig G2EadrPlatform();

// Convenience: preset selected by generation.
PlatformConfig PlatformFor(Generation gen);

// Preset selected by a command-line name, one of PlatformNames()
// (case-insensitive). Returns nullopt for unknown names so callers can route
// the error through their own flag-rejection path.
std::optional<PlatformConfig> PlatformByName(std::string_view name);

// The names PlatformByName accepts, in lower case: "g1", "g2", "g2-eadr".
std::vector<std::string> PlatformNames();

}  // namespace pmemsim

#endif  // SRC_COMMON_CONFIG_H_
