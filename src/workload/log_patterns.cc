#include "src/workload/log_patterns.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"

namespace pmemsim {
namespace {

// Deterministic payload bytes: content does not affect timing, but the
// backing store holds real data, so fills are seeded rather than zeroed.
void FillPayload(Rng& rng, std::vector<uint8_t>& buf) {
  for (size_t i = 0; i < buf.size(); i += sizeof(uint64_t)) {
    const uint64_t v = rng.Next();
    const size_t n = std::min(sizeof(uint64_t), buf.size() - i);
    std::copy_n(reinterpret_cast<const uint8_t*>(&v), n, buf.data() + i);
  }
}

class LogStoreWorkload final : public LogPatternWorkload {
 public:
  explicit LogStoreWorkload(const LogPatternOptions& opts)
      : LogPatternWorkload(opts.ops), opts_(opts), rng_(opts.seed), payload_(opts.value_bytes) {
    PMEMSIM_CHECK(opts_.counter_slots > 0);
    PMEMSIM_CHECK(opts_.value_bytes > 0);
    stride_ = AlignUp(opts_.value_bytes, kXPLineSize);
    PMEMSIM_CHECK_MSG(opts_.log_bytes >= stride_, "log arena smaller than one entry");
  }

  void Setup(System& system) override {
    counters_ = system.AllocatePm(opts_.counter_slots * kCacheLineSize, kXPLineSize);
    log_ = system.AllocatePm(opts_.log_bytes, kXPLineSize);
  }

  void RunOne(ThreadContext& ctx, uint64_t i) override {
    FillPayload(rng_, payload_);
    // Stream the entry into the next slot (wrapping), then publish it by
    // bumping the rotating commit counter: store + clwb + sfence.
    const uint64_t slots_per_arena = opts_.log_bytes / stride_;
    const Addr entry = log_.At((i % slots_per_arena) * stride_);
    ctx.NtWrite(entry, payload_.data(), payload_.size());
    ctx.Sfence();
    const Addr slot = counters_.At((i % opts_.counter_slots) * kCacheLineSize);
    ctx.Store64(slot, i + 1);
    ctx.Clwb(slot);
    ctx.Sfence();
  }

 private:
  LogPatternOptions opts_;
  Rng rng_;
  std::vector<uint8_t> payload_;
  uint64_t stride_ = 0;
  PmRegion counters_;
  PmRegion log_;
};

class CircularWritesWorkload final : public LogPatternWorkload {
 public:
  explicit CircularWritesWorkload(const LogPatternOptions& opts)
      : LogPatternWorkload(opts.ops), opts_(opts), rng_(opts.seed), payload_(opts.write_bytes) {
    PMEMSIM_CHECK(opts_.num_buffers > 0);
    PMEMSIM_CHECK(opts_.write_bytes > 0);
    stride_ = AlignUp(opts_.write_bytes, kXPLineSize);
  }

  void Setup(System& system) override {
    header_ = system.AllocatePm(kCacheLineSize, kXPLineSize);
    ring_ = system.AllocatePm(opts_.num_buffers * stride_, kXPLineSize);
  }

  void RunOne(ThreadContext& ctx, uint64_t i) override {
    FillPayload(rng_, payload_);
    // Version bump in the header line, then the full buffer rewrite — the
    // circular_writes shape: buffer reuse distance is num_buffers rounds.
    ctx.Store64(header_.At(0), i + 1);
    ctx.Clwb(header_.At(0));
    const Addr buf = ring_.At((i % opts_.num_buffers) * stride_);
    ctx.NtWrite(buf, payload_.data(), payload_.size());
    ctx.Sfence();
  }

 private:
  LogPatternOptions opts_;
  Rng rng_;
  std::vector<uint8_t> payload_;
  uint64_t stride_ = 0;
  PmRegion header_;
  PmRegion ring_;
};

class CachelineVersionsWorkload final : public LogPatternWorkload {
 public:
  explicit CachelineVersionsWorkload(const LogPatternOptions& opts)
      : LogPatternWorkload(opts.ops), opts_(opts), rng_(opts.seed), payload_(opts.buffer_bytes) {
    PMEMSIM_CHECK(opts_.buffer_bytes >= kCacheLineSize);
  }

  void Setup(System& system) override {
    arena_ = system.AllocatePm(AlignUp(opts_.buffer_bytes, kXPLineSize), kXPLineSize);
  }

  void RunOne(ThreadContext& ctx, uint64_t round) override {
    // Pre-stamp every line head with the round's version, write the body,
    // then re-stamp and flush: a reader observing mismatched stamps knows
    // the line is torn. Each line is dirtied twice per round.
    const uint64_t lines = opts_.buffer_bytes / kCacheLineSize;
    for (uint64_t l = 0; l < lines; ++l) {
      ctx.Store64(arena_.At(l * kCacheLineSize), round);
    }
    ctx.Sfence();
    FillPayload(rng_, payload_);
    ctx.Write(arena_.At(0), payload_.data(), payload_.size());
    for (uint64_t l = 0; l < lines; ++l) {
      const Addr line = arena_.At(l * kCacheLineSize);
      ctx.Store64(line, round + 1);
      ctx.Clwb(line);
    }
    ctx.Sfence();
  }

 private:
  LogPatternOptions opts_;
  Rng rng_;
  std::vector<uint8_t> payload_;
  PmRegion arena_;
};

}  // namespace

void LogPatternWorkload::Run(ThreadContext& ctx) {
  for (uint64_t i = 0; i < ops_; ++i) {
    RunOne(ctx, i);
  }
}

std::unique_ptr<LogPatternWorkload> LogPatternWorkload::Create(std::string_view name,
                                                               const LogPatternOptions& opts) {
  if (name == "log_store") {
    return std::make_unique<LogStoreWorkload>(opts);
  }
  if (name == "circular_writes") {
    return std::make_unique<CircularWritesWorkload>(opts);
  }
  if (name == "cacheline_versions") {
    return std::make_unique<CachelineVersionsWorkload>(opts);
  }
  return nullptr;
}

}  // namespace pmemsim
