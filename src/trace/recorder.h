// Trace record substrate: captures the exact operation stream a simulated
// run drives through its ThreadContexts, as a compact versioned binary file
// (".pmtrace") that the replayer can feed back through the full access path.
//
// The format is the contract (see DESIGN.md §8 for the byte-level layout and
// scripts/check_trace.py for the independent Python decoder):
//
//   file    := header segment* footer
//   header  := magic "pmtrace\0" | u32 version | u64 platform fingerprint |
//              platform name | generation | eadr | dimm count | scenario name |
//              u32 segment count
//   segment := label | metadata k/v strings | per-thread NUMA nodes |
//              u64 record count | u64 payload bytes | payload
//   payload := records in recorded (global execution) order, each
//              u8 op | varint thread | [zigzag addr delta] | [varint aux] |
//              varint clock delta — address and clock deltas are relative to
//              the previous record of the *same thread*, so per-thread clocks
//              are monotone by construction.
//   footer  := u64 total records | "EOTR"
//
// Records carry the clock *after* the op retired on its thread: the replayer
// verifies every replayed op lands on the recorded clock, which is what makes
// a replayed run trustworthy as a byte-identical reproduction.
//
// A TraceRecorder hangs off ThreadContext behind one pointer test (the same
// pattern as the attribution collector): with no recorder attached the whole
// subsystem costs one branch per operation.

#ifndef SRC_TRACE_RECORDER_H_
#define SRC_TRACE_RECORDER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/config.h"
#include "src/common/types.h"

namespace pmemsim {

// Current .pmtrace format version. Bump on any layout change; the parser
// rejects other versions (never guesses).
inline constexpr uint32_t kTraceFormatVersion = 1;

// Operation kinds. Values are part of the on-disk format — append only.
enum class TraceOp : uint8_t {
  kLoad64 = 0,
  kLoadLine = 1,
  kLoadNoPrefetch = 2,
  kStore64 = 3,
  kStoreLine = 4,
  kRead = 5,        // aux = byte length
  kWrite = 6,       // aux = byte length
  kNtStore64 = 7,
  kNtStoreLine = 8,
  kNtWrite = 9,     // aux = byte length
  kClwb = 10,
  kClflushopt = 11,
  kSfence = 12,
  kMfence = 13,
  kStreamCopy = 14,  // addr = PM XPLine, aux = DRAM bounce buffer address
  kLoadMulti = 15,   // aux = address count; payload carries the address list
  kCompute = 16,     // aux = unscaled compute cycles
  kMarker = 17,      // aux = marker id (phase boundary; replay fires a callback)
  kOpCount = 18,
};

bool TraceOpHasAddr(TraceOp op);
bool TraceOpHasAux(TraceOp op);
const char* TraceOpName(TraceOp op);

// One recorded operation. `clock` is the issuing thread's clock after the op.
struct TraceRecord {
  TraceOp op = TraceOp::kSfence;
  uint32_t thread = 0;
  Addr addr = 0;
  uint64_t aux = 0;
  Cycles clock = 0;
  std::vector<Addr> multi;  // kLoadMulti only: the parallel-load address list

  bool operator==(const TraceRecord& rhs) const {
    return op == rhs.op && thread == rhs.thread && addr == rhs.addr && aux == rhs.aux &&
           clock == rhs.clock && multi == rhs.multi;
  }
};

// One captured run on one System: the global-order record stream plus the
// thread table and the harness metadata needed to rebuild the stats row.
struct TraceSegment {
  std::string label;
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<NodeId> thread_nodes;  // index = thread id used in records
  std::vector<TraceRecord> records;  // recorded (global execution) order

  // Metadata lookup; nullptr when the key is absent.
  const std::string* FindMeta(const std::string& key) const;
};

struct TraceFileHeader {
  uint32_t version = kTraceFormatVersion;
  uint64_t fingerprint = 0;  // PlatformFingerprint() of the recording machine
  std::string platform_name;
  Generation generation = Generation::kG1;
  bool eadr = false;
  uint32_t dimm_count = 1;
  std::string scenario;
};

// A parsed (or to-be-written) trace file.
struct TraceFile {
  TraceFileHeader header;
  std::vector<TraceSegment> segments;

  uint64_t TotalRecords() const;

  // Serializes to the byte format above. Aborts (PMEMSIM_CHECK) on internal
  // inconsistencies such as a record naming a thread outside the table.
  std::string Serialize() const;
  bool WriteTo(const std::string& path, std::string* error) const;

  // Strict parse: returns false (with a message naming the offending offset)
  // on a bad magic, an unsupported version, any truncation, or any
  // out-of-bounds field. Never reads past `bytes`.
  static bool Parse(const std::string& bytes, TraceFile* out, std::string* error);
  static bool Load(const std::string& path, TraceFile* out, std::string* error);
};

// FNV-1a 64 of the fp2 text "fp2|dimms=N|path=value|...": the DIMM count,
// then every PlatformConfig leaf from FieldTexts (config.h's field list), so
// a leaf added to the list is in the digest with no edit here. Two machines
// replay each other's traces only when these match exactly; a change to any
// preset value, or to the list, re-keys the committed traces.
uint64_t PlatformFingerprint(const PlatformConfig& config, uint32_t dimm_count);

// Collects the operation stream of one System run. Threads are declared once
// (System::SetTraceRecorder does this) and then append records through the
// ThreadContext hooks.
class TraceRecorder {
 public:
  // Declares `tid` (dense, starting at 0) running on `node`. Idempotent.
  void DeclareThread(uint32_t tid, NodeId node);

  void Record(uint32_t tid, TraceOp op, Addr addr, uint64_t aux, Cycles clock);
  void RecordMulti(uint32_t tid, const Addr* addrs, size_t count, Cycles clock);

  uint64_t record_count() const { return records_.size(); }
  uint32_t thread_count() const { return static_cast<uint32_t>(thread_nodes_.size()); }

  // Moves the accumulated stream out as a segment, leaving the recorder empty
  // (thread declarations are kept, so a recorder can produce phase-separated
  // segments from one run).
  TraceSegment Take(std::string label, std::vector<std::pair<std::string, std::string>> meta);

 private:
  std::vector<NodeId> thread_nodes_;
  std::vector<TraceRecord> records_;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_RECORDER_H_
