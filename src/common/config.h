// Platform configuration: every tunable constant of the simulated machine.
//
// This file is the one table of those constants. Each value is written once:
//   * the G1 testbed (dual Xeon Gold 6320 @ 2.1 GHz + 100-series Optane DCPMM)
//     is the member initializers below, so G1Platform() only names it;
//   * G2Platform() (dual Xeon Gold 5317 @ 3.0 GHz + 200-series Optane DCPMM)
//     assigns only the values that differ from G1;
//   * each component takes its slice (WpqConfig, WriteBufferConfig, ...)
//     directly instead of copying fields into a config of its own.
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
#include <vector>

#include "src/common/types.h"

namespace pmemsim {

// One CPU cache level.
struct CacheLevelConfig {
  uint64_t size_bytes = 0;
  uint32_t ways = 8;
  Cycles hit_latency = 4;
};

// Xeon Gold 6320: 32 KB L1d, 1 MB L2, 27.5 MB L3.
struct CacheConfig {
  CacheLevelConfig l1 = {KiB(32), 8, 4};
  CacheLevelConfig l2 = {MiB(1), 16, 14};
  CacheLevelConfig l3 = {MiB(27) + KiB(512), 11, 48};

  // G2 platforms retain the cacheline (clean) after clwb; G1 invalidates it
  // (G1 clwb behaves like clflushopt).
  bool clwb_retains_line = false;

  // Cycles between a clwb retiring and its cache-side effect (invalidation on
  // G1) plus its dispatch toward the iMC becoming architecturally visible to
  // younger, unordered loads. Models the out-of-order window that lets a load
  // under sfence still hit the cache for very recently flushed lines.
  Cycles clwb_dispatch_delay = 420;

  // Default prefetcher enables (each is runtime-toggleable as with the BIOS
  // switches on the testbeds).
  bool adjacent_line_prefetch = true;
  bool dcu_streamer_prefetch = true;
  bool l2_stream_prefetch = true;

  // How many lines ahead the L2 stream prefetcher runs once a stream locks.
  uint32_t stream_prefetch_degree = 2;
};

// Replacement policy knobs (the shipped hardware behaves FIFO + exclusive and
// random-victim, per §3.1/§3.2; the alternatives exist for the ablation
// benches).
enum class ReadBufferEviction : uint8_t { kFifo, kLru };
enum class WriteBufferEviction : uint8_t { kRandom, kOldest };

// On-DIMM write-combining buffer (paper §3.2).
struct WriteBufferConfig {
  WriteBufferEviction eviction = WriteBufferEviction::kRandom;
  uint64_t capacity_bytes = KiB(16);
  // Entries reserved for write-back staging; usable capacity for partially
  // written XPLines is (capacity_bytes/256 - reserve). 16 on G1 yields the
  // observed 12 KB knee.
  uint32_t partial_reserve_entries = 16;
  // G1 writes fully-modified XPLines back to media periodically (~5000 cycles);
  // G2 disables this.
  bool periodic_full_writeback = true;
  Cycles full_writeback_period = 5000;
  // G1 evicts in a batch when the buffer overflows (sharp hit-ratio cliff);
  // G2 evicts one random victim at a time (graceful decay).
  bool batch_evict = true;
  // Fraction of occupied entries retained after a batch eviction.
  double batch_evict_keep_fraction = 0.5;
};

// Optane DIMM internals (per DIMM): a 128 GB 100-series DCPMM.
struct OptaneDimmConfig {
  // --- on-DIMM read buffer (paper §3.1) ---
  uint64_t read_buffer_bytes = KiB(16);  // 16 KB on G1, 22 KB on G2
  ReadBufferEviction read_buffer_eviction = ReadBufferEviction::kFifo;
  bool read_buffer_exclusive = true;

  WriteBufferConfig write_buffer;

  // --- service latencies (cycles) ---
  Cycles buffer_hit_latency = 90;    // DDR-T round trip hitting an on-DIMM buffer
  Cycles media_read_latency = 420;   // 256 B XPLine fetch from 3D-Xpoint media
  Cycles media_write_latency = 480;  // 256 B XPLine program to media

  // Media access ports: limits concurrency (reads scale, writes do not).
  uint32_t media_read_ports = 12;
  uint32_t media_write_ports = 4;

  // --- address indirection table (AIT) ---
  // On-DIMM AIT cache covers this much of the media before translations miss.
  uint64_t ait_cache_coverage_bytes = MiB(16);
  Cycles ait_miss_penalty = 210;

  // --- asynchronous write pipeline (DDR-T; paper §3.5) ---
  // Delay between a write being accepted at the WPQ and its value becoming
  // readable on the DIMM. Reads to a line with an in-flight persist stall
  // until it elapses: the source of read-after-persist latency.
  Cycles write_visible_delay = 2100;

  // G1 enforces same-address ordering at the DIMM: a second persist to a
  // cacheline arriving within `same_line_stall_window` of the previous one
  // stalls until the window elapses (the repeated-flush penalty behind the
  // B+-tree case study, §4.2). G2 merges same-line writes and does not stall.
  bool same_line_flush_stall = true;
  Cycles same_line_stall_window = 550;

  // Portion of a read-after-persist stall hidden by the out-of-order window
  // when the load is NOT ordered by a full fence (clwb+sfence leaves loads
  // free to issue early; clwb+mfence exposes the whole stall — Fig. 7).
  Cycles unordered_read_overlap = 800;
};

// Conventional DRAM DIMM model.
struct DramConfig {
  Cycles load_latency = 190;
  // Read by no model (DRAM stores are accepted through the WPQ); kept only
  // because the fp1 trace fingerprint renders it, and dropping it would
  // re-key every recorded .pmtrace.
  Cycles store_accept_latency = 35;
  // DDR4 writes are synchronous; the visible delay is short.
  Cycles write_visible_delay = 420;
  Cycles unordered_read_overlap = 380;
  uint32_t ports = 12;
  Cycles port_service = 30;
};

// Per-DIMM write pending queue inside the iMC's ADR domain.
struct WpqConfig {
  uint32_t entries = 16;        // queue depth
  Cycles accept_latency = 120;  // store/flush acceptance into the ADR domain
  Cycles drain_latency = 30;    // WPQ -> DIMM write-buffer transfer
};

// Integrated memory controller.
struct ImcConfig {
  WpqConfig wpq;
  // Read pending queue depth. Read by no model; kept only because the fp1
  // trace fingerprint renders it, and dropping it would re-key every recorded
  // .pmtrace.
  uint32_t rpq_entries = 32;
  Cycles read_overhead = 25;                    // iMC processing per read request
  uint64_t interleave_granularity = kPageSize;  // 4 KB PM interleave
  Cycles numa_hop_latency = 180;                // one-way socket interconnect hop
};

// The testbeds' Optane DIMM count (six, interleaved at 4 KB). A System built
// with a DIMM count of 0 gets this many.
inline constexpr uint32_t kTestbedOptaneDimms = 6;

// Core execution-model constants.
struct CpuConfig {
  // Outstanding (not yet WPQ-accepted) flushes/nt-stores a thread may have
  // before issuing another stalls — the store-buffer back-pressure that bounds
  // relaxed-persistency throughput.
  uint32_t store_buffer_depth = 48;
  Cycles fence_cost = 8;        // sfence/mfence pipeline cost beyond waiting
  Cycles store_issue_cost = 2;  // retire cost of a cached store
  // A store that misses the caches is posted: the RFO runs in the background
  // (bandwidth is consumed, the line fills) while the pipeline only pays this
  // store-buffer cost. Write latency staying flat across WSS (Fig. 8c) rests
  // on this.
  Cycles store_miss_post_cost = 18;
  Cycles nt_store_issue_cost = 6;
  Cycles flush_issue_cost = 2;  // clwb/clflushopt retire cost
  Cycles simd_copy_cost = 14;   // per-64 B AVX load+store pair (Algorithm 2)
};

// A default-constructed PlatformConfig is the G1 testbed, unnamed.
struct PlatformConfig {
  std::string name;
  Generation generation = Generation::kG1;
  double cpu_ghz = 2.1;

  CacheConfig cache;
  CpuConfig cpu;
  OptaneDimmConfig optane;
  DramConfig dram;
  ImcConfig imc;

  // Extended ADR: CPU caches are persistent, no flushes needed. The paper's
  // G2 testbed runs with eADR disabled; kept as a hook for experiments.
  bool eadr_enabled = false;
};

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
