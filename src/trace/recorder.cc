#include "src/trace/recorder.h"

#include <cstdio>
#include <cstring>

#include "src/common/check.h"

namespace pmemsim {
namespace {

constexpr char kMagic[8] = {'p', 'm', 't', 'r', 'a', 'c', 'e', '\0'};
constexpr char kEndMagic[4] = {'E', 'O', 'T', 'R'};

// Sanity bounds: generous for real traces, tight enough that a corrupt file
// cannot drive pathological allocations in the parser or the replayer.
constexpr uint64_t kMaxStringBytes = 4096;
constexpr uint64_t kMaxMetaEntries = 1024;
constexpr uint64_t kMaxThreads = 65536;
constexpr uint64_t kMaxSegments = 1 << 20;
constexpr uint64_t kMaxRangeBytes = MiB(64);   // kRead/kWrite/kNtWrite lengths
constexpr uint64_t kMaxMultiAddrs = 65536;     // kLoadMulti address-list size

void PutU8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }

void PutU16(std::string& out, uint16_t v) {
  for (int i = 0; i < 2; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

uint64_t Zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t Unzigzag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutString16(std::string& out, const std::string& s) {
  PMEMSIM_CHECK_MSG(s.size() <= kMaxStringBytes, "trace string too long");
  PutU16(out, static_cast<uint16_t>(s.size()));
  out.append(s);
}

// Bounds-checked reader over the serialized bytes. Every accessor fails soft
// (ok() goes false, value-returning calls yield 0) so the parser can report
// one error at the recorded offset instead of reading out of bounds.
class Cursor {
 public:
  Cursor(const std::string& bytes) : data_(bytes.data()), size_(bytes.size()) {}

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint16_t U16() { return static_cast<uint16_t>(Little(2)); }
  uint32_t U32() { return static_cast<uint32_t>(Little(4)); }
  uint64_t U64() { return Little(8); }

  uint64_t Varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Need(1)) return 0;
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical 10-byte encodings that would overflow u64.
        if (shift == 63 && byte > 1) {
          ok_ = false;
          return 0;
        }
        return v;
      }
    }
    ok_ = false;  // unterminated varint
    return 0;
  }

  bool Bytes(std::string* out, size_t n) {
    if (!Need(n)) return false;
    out->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool String16(std::string* out) {
    const uint16_t n = U16();
    if (!ok_ || n > kMaxStringBytes) {
      ok_ = false;
      return false;
    }
    return Bytes(out, n);
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  uint64_t Little(int n) {
    if (!Need(n)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += static_cast<size_t>(n);
    return v;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

bool Fail(std::string* error, size_t offset, const char* what) {
  if (error != nullptr) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "trace parse error at byte %zu: %s", offset, what);
    *error = buf;
  }
  return false;
}

}  // namespace

bool TraceOpHasAddr(TraceOp op) {
  switch (op) {
    case TraceOp::kSfence:
    case TraceOp::kMfence:
    case TraceOp::kCompute:
    case TraceOp::kMarker:
    case TraceOp::kLoadMulti:  // addresses live in the multi list
      return false;
    default:
      return true;
  }
}

bool TraceOpHasAux(TraceOp op) {
  switch (op) {
    case TraceOp::kRead:
    case TraceOp::kWrite:
    case TraceOp::kNtWrite:
    case TraceOp::kStreamCopy:
    case TraceOp::kLoadMulti:
    case TraceOp::kCompute:
    case TraceOp::kMarker:
      return true;
    default:
      return false;
  }
}

const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kLoad64: return "load64";
    case TraceOp::kLoadLine: return "load_line";
    case TraceOp::kLoadNoPrefetch: return "load_noprefetch";
    case TraceOp::kStore64: return "store64";
    case TraceOp::kStoreLine: return "store_line";
    case TraceOp::kRead: return "read";
    case TraceOp::kWrite: return "write";
    case TraceOp::kNtStore64: return "ntstore64";
    case TraceOp::kNtStoreLine: return "ntstore_line";
    case TraceOp::kNtWrite: return "ntwrite";
    case TraceOp::kClwb: return "clwb";
    case TraceOp::kClflushopt: return "clflushopt";
    case TraceOp::kSfence: return "sfence";
    case TraceOp::kMfence: return "mfence";
    case TraceOp::kStreamCopy: return "stream_copy";
    case TraceOp::kLoadMulti: return "load_multi";
    case TraceOp::kCompute: return "compute";
    case TraceOp::kMarker: return "marker";
    case TraceOp::kOpCount: break;
  }
  return "unknown";
}

const std::string* TraceSegment::FindMeta(const std::string& key) const {
  for (const auto& [k, v] : meta) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

uint64_t TraceFile::TotalRecords() const {
  uint64_t total = 0;
  for (const TraceSegment& seg : segments) {
    total += seg.records.size();
  }
  return total;
}

uint64_t PlatformFingerprint(const PlatformConfig& config, uint32_t dimm_count) {
  // The fp2 text: the DIMM count, then every PlatformConfig leaf as path=value
  // (FieldTexts). Hashing the rendered text keeps the digest independent of
  // struct layout.
  std::string text = "fp2|dimms=" + std::to_string(dimm_count);
  for (const std::string& field : FieldTexts(config)) {
    text += '|';
    text += field;
  }
  // FNV-1a 64.
  uint64_t h64 = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h64 ^= static_cast<uint8_t>(c);
    h64 *= 0x100000001b3ull;
  }
  return h64;
}

void TraceRecorder::DeclareThread(uint32_t tid, NodeId node) {
  PMEMSIM_CHECK_MSG(tid < kMaxThreads, "trace thread id out of range");
  if (thread_nodes_.size() <= tid) {
    thread_nodes_.resize(tid + 1, 0);
  }
  thread_nodes_[tid] = node;
}

void TraceRecorder::Record(uint32_t tid, TraceOp op, Addr addr, uint64_t aux, Cycles clock) {
  records_.push_back({op, tid, addr, aux, clock, {}});
}

void TraceRecorder::RecordMulti(uint32_t tid, const Addr* addrs, size_t count, Cycles clock) {
  PMEMSIM_CHECK_MSG(count <= kMaxMultiAddrs, "load_multi address list too long");
  TraceRecord rec{TraceOp::kLoadMulti, tid, 0, count, clock, {}};
  rec.multi.assign(addrs, addrs + count);
  records_.push_back(std::move(rec));
}

TraceSegment TraceRecorder::Take(std::string label,
                                 std::vector<std::pair<std::string, std::string>> meta) {
  TraceSegment seg;
  seg.label = std::move(label);
  seg.meta = std::move(meta);
  seg.thread_nodes = thread_nodes_;
  if (seg.thread_nodes.empty()) {
    seg.thread_nodes.push_back(0);  // a segment always has at least one thread
  }
  seg.records = std::move(records_);
  records_.clear();
  return seg;
}

std::string TraceFile::Serialize() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(out, header.version);
  PutU64(out, header.fingerprint);
  PutString16(out, header.platform_name);
  PutU8(out, static_cast<uint8_t>(header.generation));
  PutU8(out, header.eadr ? 1 : 0);
  PutU32(out, header.dimm_count);
  PutString16(out, header.scenario);
  PMEMSIM_CHECK_MSG(segments.size() <= kMaxSegments, "too many trace segments");
  PutU32(out, static_cast<uint32_t>(segments.size()));

  for (const TraceSegment& seg : segments) {
    PutString16(out, seg.label);
    PMEMSIM_CHECK_MSG(seg.meta.size() <= kMaxMetaEntries, "too many metadata entries");
    PutU16(out, static_cast<uint16_t>(seg.meta.size()));
    for (const auto& [k, v] : seg.meta) {
      PutString16(out, k);
      PutString16(out, v);
    }
    PMEMSIM_CHECK_MSG(!seg.thread_nodes.empty() && seg.thread_nodes.size() <= kMaxThreads,
                      "bad trace thread table");
    PutU32(out, static_cast<uint32_t>(seg.thread_nodes.size()));
    for (const NodeId node : seg.thread_nodes) {
      PutU8(out, node);
    }

    std::string payload;
    std::vector<Addr> last_addr(seg.thread_nodes.size(), 0);
    std::vector<Cycles> last_clock(seg.thread_nodes.size(), 0);
    for (const TraceRecord& rec : seg.records) {
      PMEMSIM_CHECK_MSG(rec.thread < seg.thread_nodes.size(), "record names undeclared thread");
      PMEMSIM_CHECK_MSG(rec.op < TraceOp::kOpCount, "record has invalid op");
      PMEMSIM_CHECK_MSG(rec.clock >= last_clock[rec.thread], "per-thread clock went backward");
      PutU8(payload, static_cast<uint8_t>(rec.op));
      PutVarint(payload, rec.thread);
      if (TraceOpHasAddr(rec.op)) {
        PutVarint(payload, Zigzag(static_cast<int64_t>(rec.addr - last_addr[rec.thread])));
        last_addr[rec.thread] = rec.addr;
      }
      if (rec.op == TraceOp::kLoadMulti) {
        PutVarint(payload, rec.multi.size());
        for (const Addr a : rec.multi) {
          PutVarint(payload, Zigzag(static_cast<int64_t>(a - last_addr[rec.thread])));
          last_addr[rec.thread] = a;
        }
      } else if (TraceOpHasAux(rec.op)) {
        PutVarint(payload, rec.aux);
      }
      PutVarint(payload, rec.clock - last_clock[rec.thread]);
      last_clock[rec.thread] = rec.clock;
    }
    PutU64(out, seg.records.size());
    PutU64(out, payload.size());
    out.append(payload);
  }

  PutU64(out, TotalRecords());
  out.append(kEndMagic, sizeof(kEndMagic));
  return out;
}

bool TraceFile::WriteTo(const std::string& path, std::string* error) const {
  const std::string bytes = Serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !ok) {
    if (error != nullptr) {
      *error = "short write to " + path;
    }
    return false;
  }
  return true;
}

bool TraceFile::Parse(const std::string& bytes, TraceFile* out, std::string* error) {
  *out = TraceFile();
  Cursor c(bytes);

  std::string magic;
  if (!c.Bytes(&magic, sizeof(kMagic)) || std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, 0, "bad magic (not a .pmtrace file)");
  }
  out->header.version = c.U32();
  if (!c.ok()) {
    return Fail(error, c.pos(), "truncated header");
  }
  if (out->header.version != kTraceFormatVersion) {
    return Fail(error, c.pos(), "unsupported format version");
  }
  out->header.fingerprint = c.U64();
  if (!c.String16(&out->header.platform_name)) {
    return Fail(error, c.pos(), "bad platform name");
  }
  const uint8_t gen = c.U8();
  if (!c.ok() || gen > 1) {
    return Fail(error, c.pos(), "bad generation");
  }
  out->header.generation = static_cast<Generation>(gen);
  const uint8_t eadr = c.U8();
  if (!c.ok() || eadr > 1) {
    return Fail(error, c.pos(), "bad eadr flag");
  }
  out->header.eadr = eadr != 0;
  out->header.dimm_count = c.U32();
  if (!c.String16(&out->header.scenario)) {
    return Fail(error, c.pos(), "bad scenario name");
  }
  const uint32_t segment_count = c.U32();
  if (!c.ok() || segment_count > kMaxSegments) {
    return Fail(error, c.pos(), "bad segment count");
  }

  for (uint32_t s = 0; s < segment_count; ++s) {
    TraceSegment seg;
    if (!c.String16(&seg.label)) {
      return Fail(error, c.pos(), "bad segment label");
    }
    const uint16_t meta_count = c.U16();
    if (!c.ok() || meta_count > kMaxMetaEntries) {
      return Fail(error, c.pos(), "bad metadata count");
    }
    for (uint16_t m = 0; m < meta_count; ++m) {
      std::string k, v;
      if (!c.String16(&k) || !c.String16(&v)) {
        return Fail(error, c.pos(), "bad metadata entry");
      }
      seg.meta.emplace_back(std::move(k), std::move(v));
    }
    const uint32_t thread_count = c.U32();
    if (!c.ok() || thread_count == 0 || thread_count > kMaxThreads) {
      return Fail(error, c.pos(), "bad thread count");
    }
    for (uint32_t t = 0; t < thread_count; ++t) {
      seg.thread_nodes.push_back(c.U8());
    }
    const uint64_t record_count = c.U64();
    const uint64_t payload_bytes = c.U64();
    if (!c.ok() || payload_bytes > c.remaining()) {
      return Fail(error, c.pos(), "truncated segment payload");
    }
    // Each record is at least 3 bytes (op, thread, clock delta).
    if (record_count > payload_bytes) {
      return Fail(error, c.pos(), "record count exceeds payload capacity");
    }

    const size_t payload_end = c.pos() + payload_bytes;
    std::vector<Addr> last_addr(thread_count, 0);
    std::vector<Cycles> last_clock(thread_count, 0);
    seg.records.reserve(record_count);
    for (uint64_t r = 0; r < record_count; ++r) {
      TraceRecord rec;
      const uint8_t op = c.U8();
      if (!c.ok() || op >= static_cast<uint8_t>(TraceOp::kOpCount)) {
        return Fail(error, c.pos(), "bad op code");
      }
      rec.op = static_cast<TraceOp>(op);
      const uint64_t tid = c.Varint();
      if (!c.ok() || tid >= thread_count) {
        return Fail(error, c.pos(), "record thread out of range");
      }
      rec.thread = static_cast<uint32_t>(tid);
      if (TraceOpHasAddr(rec.op)) {
        rec.addr = last_addr[tid] + static_cast<uint64_t>(Unzigzag(c.Varint()));
        last_addr[tid] = rec.addr;
      }
      if (rec.op == TraceOp::kLoadMulti) {
        const uint64_t count = c.Varint();
        if (!c.ok() || count > kMaxMultiAddrs) {
          return Fail(error, c.pos(), "bad load_multi count");
        }
        rec.aux = count;
        rec.multi.reserve(count);
        for (uint64_t i = 0; i < count; ++i) {
          const Addr a = last_addr[tid] + static_cast<uint64_t>(Unzigzag(c.Varint()));
          rec.multi.push_back(a);
          last_addr[tid] = a;
        }
      } else if (TraceOpHasAux(rec.op)) {
        rec.aux = c.Varint();
        const bool range = rec.op == TraceOp::kRead || rec.op == TraceOp::kWrite ||
                           rec.op == TraceOp::kNtWrite;
        if (range && rec.aux > kMaxRangeBytes) {
          return Fail(error, c.pos(), "range op length over limit");
        }
      }
      rec.clock = last_clock[tid] + c.Varint();
      last_clock[tid] = rec.clock;
      if (!c.ok()) {
        return Fail(error, c.pos(), "truncated record");
      }
      if (c.pos() > payload_end) {
        return Fail(error, c.pos(), "record overruns segment payload");
      }
      seg.records.push_back(std::move(rec));
    }
    if (c.pos() != payload_end) {
      return Fail(error, c.pos(), "segment payload has trailing bytes");
    }
    out->segments.push_back(std::move(seg));
  }

  const uint64_t total = c.U64();
  std::string end_magic;
  if (!c.Bytes(&end_magic, sizeof(kEndMagic)) ||
      std::memcmp(end_magic.data(), kEndMagic, sizeof(kEndMagic)) != 0) {
    return Fail(error, c.pos(), "missing end-of-trace footer");
  }
  if (total != out->TotalRecords()) {
    return Fail(error, c.pos(), "footer record count does not reconcile");
  }
  if (c.remaining() != 0) {
    return Fail(error, c.pos(), "trailing bytes after footer");
  }
  return true;
}

bool TraceFile::Load(const std::string& path, TraceFile* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::string bytes;
  char buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    if (error != nullptr) {
      *error = "read error on " + path;
    }
    return false;
  }
  return Parse(bytes, out, error);
}

}  // namespace pmemsim
