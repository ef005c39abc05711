#include "src/trace/replayer.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

namespace pmemsim {
namespace {

void FormatDivergence(ReplayResult* res, uint64_t index, const TraceRecord& rec, Cycles got) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "replay diverged at record %" PRIu64 " (thread %u, op %s, addr 0x%" PRIx64
                "): clock %" PRIu64 " vs recorded %" PRIu64,
                index, rec.thread, TraceOpName(rec.op), rec.addr, static_cast<uint64_t>(got),
                static_cast<uint64_t>(rec.clock));
  res->error = buf;
}

}  // namespace

ReplayResult ReplaySegment(const TraceSegment& seg, System& system, const ReplayOptions& opts) {
  ReplayResult res;

  std::vector<ThreadContext*> ctxs;
  ctxs.reserve(seg.thread_nodes.size());
  for (const NodeId node : seg.thread_nodes) {
    ctxs.push_back(&system.CreateThread(node));
    if (opts.on_thread_created) {
      opts.on_thread_created(*ctxs.back(), static_cast<uint32_t>(ctxs.size() - 1));
    }
  }

  // Payload bytes are not recorded (statistics and timing are address- and
  // order-driven), so data-carrying ops replay zeroes.
  std::vector<uint8_t> scratch;
  const uint8_t zero_line[kCacheLineSize] = {};

  for (uint64_t i = 0; i < seg.records.size(); ++i) {
    const TraceRecord& rec = seg.records[i];
    ThreadContext& ctx = *ctxs[rec.thread];
    switch (rec.op) {
      case TraceOp::kLoad64:
        (void)ctx.Load64(rec.addr);
        break;
      case TraceOp::kLoadLine:
        ctx.LoadLine(rec.addr);
        break;
      case TraceOp::kLoadNoPrefetch:
        (void)ctx.Load64NoPrefetch(rec.addr);
        break;
      case TraceOp::kStore64:
        ctx.Store64(rec.addr, 0);
        break;
      case TraceOp::kStoreLine:
        ctx.StoreLine(rec.addr);
        break;
      case TraceOp::kRead:
        scratch.resize(rec.aux);
        ctx.Read(rec.addr, scratch.data(), rec.aux);
        break;
      case TraceOp::kWrite:
        scratch.assign(rec.aux, 0);
        ctx.Write(rec.addr, scratch.data(), rec.aux);
        break;
      case TraceOp::kNtStore64:
        ctx.NtStore64(rec.addr, 0);
        break;
      case TraceOp::kNtStoreLine:
        ctx.NtStoreLine(rec.addr, zero_line);
        break;
      case TraceOp::kNtWrite:
        scratch.assign(rec.aux, 0);
        ctx.NtWrite(rec.addr, scratch.data(), rec.aux);
        break;
      case TraceOp::kClwb:
        ctx.Clwb(rec.addr);
        break;
      case TraceOp::kClflushopt:
        ctx.Clflushopt(rec.addr);
        break;
      case TraceOp::kSfence:
        ctx.Sfence();
        break;
      case TraceOp::kMfence:
        ctx.Mfence();
        break;
      case TraceOp::kStreamCopy:
        ctx.StreamCopyXPLine(rec.addr, rec.aux);
        break;
      case TraceOp::kLoadMulti:
        ctx.LoadMulti(rec.multi.data(), rec.multi.size());
        break;
      case TraceOp::kCompute:
        ctx.AddCompute(rec.aux);
        break;
      case TraceOp::kMarker:
        // Re-emit through the context so a replay under a fresh recorder
        // re-records the marker at the same stream position.
        ctx.TraceMarker(static_cast<uint32_t>(rec.aux));
        if (opts.on_marker) {
          opts.on_marker(static_cast<uint32_t>(rec.aux), rec.thread);
        }
        break;
      case TraceOp::kOpCount:
        res.error = "invalid op in segment";
        return res;
    }
    if (ctx.clock() != rec.clock) {
      FormatDivergence(&res, i, rec, ctx.clock());
      return res;
    }
    ++res.records_applied;
  }

  for (const ThreadContext* ctx : ctxs) {
    res.end_clock = std::max(res.end_clock, ctx->clock());
  }
  res.ok = true;
  return res;
}

}  // namespace pmemsim
