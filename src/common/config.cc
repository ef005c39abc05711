#include "src/common/config.h"

#include <cctype>
#include <cstdio>

namespace pmemsim {

namespace {

template <typename T>
std::string ValueText(const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  } else {
    return std::to_string(static_cast<uint64_t>(value));
  }
}

}  // namespace

std::vector<std::string> FieldTexts(const PlatformConfig& config) {
  std::vector<std::string> texts;
  ForEachField(config, [&](std::string_view path, const auto& value) {
    texts.push_back(std::string(path) + "=" + ValueText(value));
  });
  return texts;
}

PlatformConfig G1Platform() {
  PlatformConfig p;
  p.name = "G1-Optane";
  return p;
}

PlatformConfig G2Platform() {
  PlatformConfig p;
  p.name = "G2-Optane";
  p.generation = Generation::kG2;
  p.cpu_ghz = 3.0;

  // Xeon Gold 5317 (Ice Lake): larger private L2, 36 MB L3. Cycle latencies
  // are higher at 3 GHz and the retained-after-clwb coherence cost shows up
  // as a larger hit latency on memory-side accesses (paper §3.5).
  p.cache.l1 = {KiB(48), 12, 5};
  p.cache.l2 = {MiB(1) + KiB(256), 20, 16};
  p.cache.l3 = {MiB(36), 12, 54};
  p.cache.clwb_retains_line = true;  // G2 clwb keeps the line cached

  // 200-series: slightly larger read buffer (22 KB), no periodic write-back of
  // fully written XPLines, single-victim random eviction, knee beyond 12 KB.
  p.optane.read_buffer_bytes = KiB(22);
  p.optane.write_buffer.partial_reserve_entries = 0;  // full 16 KB usable
  p.optane.write_buffer.periodic_full_writeback = false;
  p.optane.write_buffer.batch_evict = false;
  p.optane.buffer_hit_latency = 150;  // coherence upkeep makes buffer hits dearer
  p.optane.media_read_latency = 560;  // ~same ns at a higher clock
  p.optane.media_write_latency = 640;
  p.optane.ait_miss_penalty = 260;
  p.optane.write_visible_delay = 1750;
  p.optane.unordered_read_overlap = 1100;
  p.optane.same_line_flush_stall = false;

  p.dram.load_latency = 260;  // higher cycles at 3 GHz + coherence cost
  p.dram.write_visible_delay = 500;
  p.dram.unordered_read_overlap = 430;

  p.imc.numa_hop_latency = 210;
  return p;
}

PlatformConfig G2EadrPlatform() {
  PlatformConfig p = G2Platform();
  p.name = "G2-Optane-eADR";
  p.eadr_enabled = true;
  return p;
}

PlatformConfig PlatformFor(Generation gen) {
  return gen == Generation::kG1 ? G1Platform() : G2Platform();
}

namespace {

struct NamedPlatform {
  const char* name;
  PlatformConfig (*make)();
};

// The command-line preset names, in PlatformNames() order.
constexpr NamedPlatform kNamedPlatforms[] = {
    {"g1", G1Platform},
    {"g2", G2Platform},
    {"g2-eadr", G2EadrPlatform},
};

}  // namespace

std::vector<std::string> PlatformNames() {
  std::vector<std::string> names;
  for (const NamedPlatform& p : kNamedPlatforms) {
    names.emplace_back(p.name);
  }
  return names;
}

std::optional<PlatformConfig> PlatformByName(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  for (const NamedPlatform& p : kNamedPlatforms) {
    if (lower == p.name) {
      return p.make();
    }
  }
  return std::nullopt;
}

}  // namespace pmemsim
