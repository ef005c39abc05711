// §3.3 (no figure): evidence that the read and write buffers are separate,
// and that XPLines transition between them.
//
// Experiment A (separation): a 16 KB read region and an 8 KB write region are
// accessed with interleaved reads (clflushopt'd after each load) and
// nt-stores. Each working set individually fits its buffer but the aggregate
// (24 KB) would overflow a shared 16 KB space. Observed: RA stays 1 and no
// data is written to the media — the buffers do not contend.
//
// Experiment B (transition): one nt-store to the first cacheline of an
// XPLine, followed by reads of its other three cachelines, over an 8 KB
// region. Observed: media traffic far below iMC traffic in both directions.
// The mechanism is the write buffer's on-demand read-modify-write merge: the
// first read of a missing line pulls the whole XPLine into the
// (non-exclusive) write buffer, so later reads and partial writes hit it.
// The read_write_transitions counter stays 0 on both generations.
//
// Both experiments print one row against the same columns, with a verdict
// against the paper's claims.

#include <string>
#include <vector>

#include "bench/sweep_runner.h"
#include "src/core/platform.h"
#include "src/trace/counters.h"

namespace {

using namespace pmemsim;

const std::vector<std::string> kColumns = {
    "gen", "experiment", "read_amplification", "write_amplification", "media_write_bytes",
    "transitions", "verdict"};

pmemsim_bench::Row ResultRow(Generation gen, const char* experiment, const Counters& d,
                             const char* verdict) {
  return pmemsim_bench::Row()
      .Set("gen", gen == Generation::kG1 ? "G1" : "G2")
      .Set("experiment", experiment)
      .Set("read_amplification", d.ReadAmplification(), 3)
      .Set("write_amplification", d.WriteAmplification(), 3)
      .Set("media_write_bytes", d.media_write_bytes)
      .Set("transitions", d.read_write_transitions)
      .Set("verdict", verdict);
}

void RunSeparation(Generation gen, pmemsim_bench::SweepPoint& point) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, false, false, false);

  const PmRegion read_region = system->AllocatePm(KiB(16), kXPLineSize);
  const PmRegion write_region = system->AllocatePm(KiB(8), kXPLineSize);
  const uint64_t read_lines = read_region.size / kCacheLineSize;
  const uint64_t write_xplines = write_region.size / kXPLineSize;

  auto pass = [&](int rounds) {
    for (int p = 0; p < rounds; ++p) {
      for (uint64_t i = 0; i < read_lines; ++i) {
        const Addr raddr = read_region.base + i * kCacheLineSize;
        ctx.LoadLine(raddr);
        ctx.Clflushopt(raddr);
        // Partial writes: one cacheline per XPLine of the write region.
        const Addr waddr = write_region.base + (i % write_xplines) * kXPLineSize;
        ctx.NtStore64(waddr, i);
      }
      ctx.Sfence();
    }
  };

  pass(3);
  CounterDelta delta(&system->counters());
  pass(8);
  const Counters d = delta.Delta();
  const bool no_media_write = d.media_write_bytes == 0;
  const char* verdict =
      (d.ReadAmplification() < 1.05 && no_media_write) ? "SEPARATE-BUFFERS" : "SHARED-BUFFERS";
  point.Emit(ResultRow(gen, "separation", d, verdict));
}

void RunTransition(Generation gen, pmemsim_bench::SweepPoint& point) {
  auto system = MakeSystem(gen, /*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, false, false, false);

  const PmRegion region = system->AllocatePm(KiB(8), kXPLineSize);
  const uint64_t xplines = region.size / kXPLineSize;

  auto pass = [&](int rounds) {
    for (int p = 0; p < rounds; ++p) {
      for (uint64_t xp = 0; xp < xplines; ++xp) {
        const Addr base = region.base + xp * kXPLineSize;
        ctx.NtStore64(base, p);  // write the first cacheline...
        for (uint64_t cl = 1; cl < kLinesPerXPLine; ++cl) {
          ctx.LoadLine(base + cl * kCacheLineSize);  // ...read the other three
          ctx.Clflushopt(base + cl * kCacheLineSize);
        }
      }
      ctx.Sfence();
    }
  };

  pass(3);
  CounterDelta delta(&system->counters());
  pass(8);
  const Counters d = delta.Delta();
  const char* verdict = (d.ReadAmplification() < 0.5 && d.WriteAmplification() < 1.2)
                            ? "BUFFER-HITS"
                            : "MEDIA-BOUND";
  point.Emit(ResultRow(gen, "transition", d, verdict));
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Sweep sweep(argc, argv, "sec33_buffer_separation");
  pmemsim_bench::SweepRunner& runner =
      sweep.Start("Section 3.3", "read/write buffer separation and XPLine transition", kColumns);
  for (Generation gen : {Generation::kG1, Generation::kG2}) {
    const char* gen_name = gen == Generation::kG1 ? "G1" : "G2";
    runner.Add(std::string(gen_name) + "/separation",
               [=](pmemsim_bench::SweepPoint& point) { RunSeparation(gen, point); });
    runner.Add(std::string(gen_name) + "/transition",
               [=](pmemsim_bench::SweepPoint& point) { RunTransition(gen, point); });
  }
  return sweep.Finish();
}
