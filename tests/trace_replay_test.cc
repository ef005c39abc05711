// Trace record/replay: round-trip byte identity, replay determinism, and
// strict rejection of damaged files (DESIGN.md §8).

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/trace/recorder.h"
#include "src/trace/replayer.h"
#include "src/workload/log_patterns.h"

namespace pmemsim {
namespace {

TraceFileHeader G1Header(const std::string& scenario) {
  const PlatformConfig config = *PlatformByName("g1");
  TraceFileHeader h;
  h.fingerprint = PlatformFingerprint(config, 1);
  h.platform_name = "g1";
  h.generation = config.generation;
  h.eadr = config.eadr_enabled;
  h.dimm_count = 1;
  h.scenario = scenario;
  return h;
}

// Records one single-threaded mixed-op run and returns the segment.
TraceSegment RecordMixedRun(System& system, TraceRecorder& recorder) {
  system.SetTraceRecorder(&recorder);
  ThreadContext& ctx = system.CreateThread();
  const PmRegion pm = system.AllocatePm(KiB(16), kXPLineSize);
  const PmRegion dram = system.AllocateDram(KiB(4), kXPLineSize);

  uint8_t buf[512] = {};
  ctx.Store64(pm.At(0), 1);
  ctx.Clwb(pm.At(0));
  ctx.Sfence();
  ctx.Write(pm.At(256), buf, sizeof(buf));
  (void)ctx.Load64(pm.At(256));
  ctx.LoadLine(pm.At(512));
  (void)ctx.Load64NoPrefetch(pm.At(1024));
  ctx.Read(pm.At(0), buf, 128);
  ctx.NtStore64(pm.At(2048), 7);
  ctx.NtStoreLine(pm.At(2048 + 64), buf);
  ctx.NtWrite(pm.At(4096), buf, 320);
  ctx.Clflushopt(pm.At(256));
  ctx.Mfence();
  ctx.AddCompute(120);
  ctx.TraceMarker(3);
  ctx.StreamCopyXPLine(pm.At(8192), dram.At(0));
  const Addr multi[3] = {pm.At(64), pm.At(128), pm.At(192)};
  ctx.LoadMulti(multi, 3);
  ctx.Sfence();

  return recorder.Take("mixed", {{"scenario", "mixed"}, {"k", "v"}});
}

TEST(TraceFormatTest, SerializeParseRoundTripIsLossless) {
  const PlatformConfig config = *PlatformByName("g1");
  System system(config, 1);
  TraceRecorder recorder;
  TraceFile file;
  file.header = G1Header("mixed");
  file.segments.push_back(RecordMixedRun(system, recorder));
  ASSERT_GT(file.segments[0].records.size(), 10u);

  const std::string bytes = file.Serialize();
  TraceFile parsed;
  std::string error;
  ASSERT_TRUE(TraceFile::Parse(bytes, &parsed, &error)) << error;

  EXPECT_EQ(parsed.header.version, kTraceFormatVersion);
  EXPECT_EQ(parsed.header.fingerprint, file.header.fingerprint);
  EXPECT_EQ(parsed.header.platform_name, "g1");
  EXPECT_EQ(parsed.header.scenario, "mixed");
  ASSERT_EQ(parsed.segments.size(), 1u);
  EXPECT_EQ(parsed.segments[0].label, "mixed");
  EXPECT_EQ(parsed.segments[0].meta, file.segments[0].meta);
  EXPECT_EQ(parsed.segments[0].thread_nodes, file.segments[0].thread_nodes);
  ASSERT_EQ(parsed.segments[0].records.size(), file.segments[0].records.size());
  for (size_t i = 0; i < parsed.segments[0].records.size(); ++i) {
    EXPECT_EQ(parsed.segments[0].records[i], file.segments[0].records[i]) << "record " << i;
  }

  // Re-serializing the parsed file reproduces the bytes exactly.
  EXPECT_EQ(parsed.Serialize(), bytes);
}

// WriteTo's and Load's I/O failures each name the path they failed on.
TEST(TraceFileIoTest, CannotOpenNamesThePath) {
  TraceFile file;
  file.header = G1Header("io");
  const std::string path = ::testing::TempDir() + "/no_such_dir/x.pmtrace";
  std::string error;
  EXPECT_FALSE(file.WriteTo(path, &error));
  EXPECT_EQ(error, "cannot open " + path + " for writing");
  TraceFile out;
  EXPECT_FALSE(TraceFile::Load(path, &out, &error));
  EXPECT_EQ(error, "cannot open " + path);
}

TEST(TraceFileIoTest, ShortWriteNamesThePath) {
  const std::string path = "/dev/full";
  std::FILE* probe = std::fopen(path.c_str(), "wb");
  if (probe == nullptr) {
    GTEST_SKIP() << path << " is not writable here";
  }
  std::fclose(probe);
  TraceFile file;
  file.header = G1Header("io");
  std::string error;
  EXPECT_FALSE(file.WriteTo(path, &error));
  EXPECT_EQ(error, "short write to " + path);
}

TEST(TraceFileIoTest, ReadErrorNamesThePath) {
  const std::string path = ::testing::TempDir();  // a directory opens but cannot be read
  TraceFile out;
  std::string error;
  EXPECT_FALSE(TraceFile::Load(path, &out, &error));
  EXPECT_EQ(error, "read error on " + path);
}

TEST(TraceReplayTest, ReplayReproducesClocksAndCounters) {
  const PlatformConfig config = *PlatformByName("g1");
  System recorded(config, 1);
  TraceRecorder recorder;
  const TraceSegment seg = RecordMixedRun(recorded, recorder);
  const Counters want = recorded.counters();

  System fresh(config, 1);
  uint32_t markers_seen = 0;
  ReplayOptions opts;
  opts.on_marker = [&](uint32_t id, uint32_t thread) {
    EXPECT_EQ(id, 3u);
    EXPECT_EQ(thread, 0u);
    ++markers_seen;
  };
  const ReplayResult res = ReplaySegment(seg, fresh, opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.records_applied, seg.records.size());
  EXPECT_EQ(markers_seen, 1u);
  EXPECT_EQ(res.end_clock, seg.records.back().clock);
  EXPECT_TRUE(fresh.counters() == want);
}

TEST(TraceReplayTest, ReplayUnderFreshRecorderReRecordsIdentically) {
  const PlatformConfig config = *PlatformByName("g1");
  System recorded(config, 1);
  TraceRecorder recorder;
  const TraceSegment seg = RecordMixedRun(recorded, recorder);

  // Attach a recorder to the replaying system: record -> replay -> re-record
  // must reproduce the stream exactly (serialized bytes included).
  System fresh(config, 1);
  TraceRecorder second;
  fresh.SetTraceRecorder(&second);
  const ReplayResult res = ReplaySegment(seg, fresh, {});
  ASSERT_TRUE(res.ok) << res.error;
  const TraceSegment seg2 = second.Take(seg.label, seg.meta);

  TraceFile a, b;
  a.header = b.header = G1Header("mixed");
  a.segments.push_back(seg);
  b.segments.push_back(seg2);
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(TraceReplayTest, MultiThreadedWorkloadReplaysDeterministically) {
  const PlatformConfig config = *PlatformByName("g1");
  LogPatternOptions opts;
  opts.ops = 60;
  for (const char* name : {"log_store", "circular_writes", "cacheline_versions"}) {
    System recorded(config, 1);
    TraceRecorder recorder;
    recorded.SetTraceRecorder(&recorder);
    // Two threads with private instances; serial back-to-back execution is
    // itself a valid interleaving, and the trace captures whatever happened.
    for (int t = 0; t < 2; ++t) {
      auto w = LogPatternWorkload::Create(name, opts);
      ASSERT_NE(w, nullptr) << name;
      w->Setup(recorded);
      w->Run(recorded.CreateThread());
    }
    const TraceSegment seg = recorder.Take(name, {});
    ASSERT_EQ(seg.thread_nodes.size(), 2u) << name;
    const Counters want = recorded.counters();

    System fresh(config, 1);
    const ReplayResult res = ReplaySegment(seg, fresh, {});
    ASSERT_TRUE(res.ok) << name << ": " << res.error;
    EXPECT_TRUE(fresh.counters() == want) << name;
  }
}

TEST(TraceReplayTest, ReplayOnWrongPlatformDivergesLoudly) {
  System recorded(*PlatformByName("g1"), 1);
  TraceRecorder recorder;
  const TraceSegment seg = RecordMixedRun(recorded, recorder);

  // Replaying a G1 trace on G2 must fail clock verification, not silently
  // produce wrong counters. (The tool's fingerprint check refuses earlier;
  // this covers the library-level contract.)
  System wrong(*PlatformByName("g2"), 1);
  const ReplayResult res = ReplaySegment(seg, wrong, {});
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("diverged"), std::string::npos) << res.error;
}

// Changes one config leaf to another valid value: a string gains a
// character, a bool flips, an enum moves to its neighbour, a number grows.
template <typename T>
void Perturb(T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    value += '\'';
  } else if constexpr (std::is_same_v<T, bool>) {
    value = !value;
  } else if constexpr (std::is_enum_v<T>) {
    value = static_cast<T>(static_cast<std::underlying_type_t<T>>(value) ^ 1);
  } else {
    value += 1;
  }
}

// For every leaf ForEachField visits, a G1 copy that differs in that leaf
// only must get a digest of its own: no constant that shapes replay is left
// out of the fingerprint.
TEST(TraceFormatTest, FingerprintIsStableAndDiscriminating) {
  const PlatformConfig g1 = *PlatformByName("g1");
  const PlatformConfig g2 = *PlatformByName("g2");
  const PlatformConfig g2e = *PlatformByName("g2-eadr");
  EXPECT_EQ(PlatformFingerprint(g1, 1), PlatformFingerprint(g1, 1));
  EXPECT_NE(PlatformFingerprint(g1, 1), PlatformFingerprint(g2, 1));
  EXPECT_NE(PlatformFingerprint(g2, 1), PlatformFingerprint(g2e, 1));
  EXPECT_NE(PlatformFingerprint(g1, 1), PlatformFingerprint(g1, 6));

  std::vector<std::string> paths;
  ForEachField(g1, [&](std::string_view path, const auto&) { paths.emplace_back(path); });
  std::map<uint64_t, std::string> seen = {{PlatformFingerprint(g1, 1), "g1"}};
  for (size_t i = 0; i < paths.size(); ++i) {
    PlatformConfig tweaked = g1;
    size_t leaf = 0;
    ForEachField(tweaked, [&](std::string_view, auto& value) {
      if (leaf++ == i) {
        Perturb(value);
      }
    });
    const auto [it, fresh] = seen.emplace(PlatformFingerprint(tweaked, 1), paths[i]);
    EXPECT_TRUE(fresh) << paths[i] << " hashes like " << it->second;
  }
  EXPECT_EQ(seen.size(), paths.size() + 1);
}

// Pins the digest of every named preset at both DIMM counts the paper
// measures. A drift re-keys every trace recorded on that preset; no committed
// .pmtrace is recorded on plain g2, so this is the only guard for it.
TEST(TraceFormatTest, FingerprintPinnedPerPreset) {
  struct Pin {
    const char* preset;
    uint32_t dimms;
    uint64_t fingerprint;
  };
  const Pin kPins[] = {
      {"g1", 1, 0xbe7120c1de37ef0d},
      {"g1", 6, 0x2a5e166ec38d1d9e},
      {"g2", 1, 0x05848ea98a8244ce},
      {"g2", 6, 0x0e00c18c24181d0f},
      {"g2-eadr", 1, 0x90537a0841f04798},
      {"g2-eadr", 6, 0x70d8c848e8aa60cb},
  };
  for (const Pin& pin : kPins) {
    EXPECT_EQ(PlatformFingerprint(*PlatformByName(pin.preset), pin.dimms), pin.fingerprint)
        << pin.preset << " dimms=" << pin.dimms;
  }
}

// Every strict-prefix truncation of a valid file must be rejected cleanly.
TEST(TraceFormatTest, TruncationAtEveryPrefixIsRejected) {
  const PlatformConfig config = *PlatformByName("g1");
  System system(config, 1);
  TraceRecorder recorder;
  system.SetTraceRecorder(&recorder);
  ThreadContext& ctx = system.CreateThread();
  const PmRegion pm = system.AllocatePm(KiB(4), kXPLineSize);
  for (int i = 0; i < 8; ++i) {
    ctx.NtStore64(pm.At(static_cast<uint64_t>(i) * 64), i);
  }
  ctx.Sfence();

  TraceFile file;
  file.header = G1Header("trunc");
  file.segments.push_back(recorder.Take("trunc", {}));
  const std::string bytes = file.Serialize();
  ASSERT_GT(bytes.size(), 64u);

  for (size_t len = 0; len < bytes.size(); ++len) {
    TraceFile out;
    std::string error;
    EXPECT_FALSE(TraceFile::Parse(bytes.substr(0, len), &out, &error))
        << "prefix of " << len << " bytes parsed";
    EXPECT_FALSE(error.empty());
  }
  // Trailing garbage after a valid file is also rejected.
  TraceFile out;
  std::string error;
  EXPECT_FALSE(TraceFile::Parse(bytes + "x", &out, &error));
}

TEST(TraceFormatTest, CorruptionIsRejected) {
  const PlatformConfig config = *PlatformByName("g1");
  System system(config, 1);
  TraceRecorder recorder;
  system.SetTraceRecorder(&recorder);
  ThreadContext& ctx = system.CreateThread();
  const PmRegion pm = system.AllocatePm(KiB(4), kXPLineSize);
  ctx.Store64(pm.At(0), 1);
  ctx.Clwb(pm.At(0));
  ctx.Sfence();

  TraceFile file;
  file.header = G1Header("corrupt");
  file.segments.push_back(recorder.Take("corrupt", {}));
  const std::string bytes = file.Serialize();

  auto expect_reject = [&](std::string mutated, const char* what) {
    TraceFile out;
    std::string error;
    EXPECT_FALSE(TraceFile::Parse(mutated, &out, &error)) << what;
    EXPECT_FALSE(error.empty()) << what;
  };

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  expect_reject(bad_magic, "magic");

  std::string bad_version = bytes;
  bad_version[8] = static_cast<char>(kTraceFormatVersion + 1);  // u32 LE at offset 8
  expect_reject(bad_version, "version");

  std::string bad_footer = bytes;
  bad_footer[bytes.size() - 1] ^= 0xFF;
  expect_reject(bad_footer, "footer magic");

  // Footer record count disagreeing with the segments is reconciled.
  std::string bad_count = bytes;
  bad_count[bytes.size() - 12] ^= 0x01;  // low byte of the u64 total
  expect_reject(bad_count, "footer count");
}

// A serialized one-segment trace (two threads, one metadata entry) whose
// record count, payload length and payload are replaced by `records`,
// `payload.size()` and `payload`: the payload sits between the two u64
// fields and the 12-byte footer (u64 total records, "EOTR").
std::string TraceWithPayload(const std::string& payload, uint64_t records) {
  TraceFile file;
  file.header = G1Header("edit");
  TraceSegment seg;
  seg.label = "edit";
  seg.meta = {{"k", "v"}};
  seg.thread_nodes = {0, 0};
  file.segments.push_back(seg);
  const std::string empty = file.Serialize();  // zero records, zero payload bytes
  auto u64 = [](uint64_t v) {
    std::string out;
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>(v >> (8 * i)));
    }
    return out;
  };
  std::string bytes = empty.substr(0, empty.size() - 12 - 16);
  bytes += u64(records) + u64(payload.size()) + payload;
  return bytes + u64(records) + "EOTR";
}

// Each record-level and metadata rejection, by the message it gives.
TEST(TraceFormatTest, EditedPayloadsAreRejectedByName) {
  // Records are u8 op | varint thread | [zigzag addr delta] | [varint aux] |
  // varint clock delta; sfence (12) carries neither addr nor aux.
  const struct {
    std::string payload;
    uint64_t records;
    const char* error;
  } cases[] = {
      // Op 18 is kOpCount.
      {std::string("\x12\x00\x00", 3), 1, "bad op code"},
      // Thread 2 of a two-thread table.
      {std::string("\x0c\x02\x00", 3), 1, "record thread out of range"},
      // load_multi (15) has no addr field: its count 65537 is over 65536.
      {std::string("\x0f\x00\x81\x80\x04\x00", 6), 1, "bad load_multi count"},
      // read (5), addr delta 0, length 2^26 + 1 (over 64 MiB).
      {std::string("\x05\x00\x00\x81\x80\x80\x20\x00", 8), 1, "range op length over limit"},
      // The clock delta byte is missing: it is read from the footer.
      {std::string("\x0c\x00", 2), 1, "record overruns segment payload"},
      {std::string("\x0c\x00\x00\x00", 4), 1, "segment payload has trailing bytes"},
  };
  for (const auto& c : cases) {
    TraceFile out;
    std::string error;
    const std::string bytes = TraceWithPayload(c.payload, c.records);
    EXPECT_FALSE(TraceFile::Parse(bytes, &out, &error)) << c.error;
    EXPECT_NE(error.find(c.error), std::string::npos) << c.error << ": " << error;
  }

  // A well-formed payload parses: one sfence on thread 1 at clock 5.
  TraceFile out;
  std::string error;
  const std::string sfence = TraceWithPayload(std::string("\x0c\x01\x05", 3), 1);
  ASSERT_TRUE(TraceFile::Parse(sfence, &out, &error)) << error;
  ASSERT_EQ(out.segments.size(), 1u);
  ASSERT_EQ(out.segments[0].records.size(), 1u);
  EXPECT_EQ(out.segments[0].records[0].thread, 1u);
  EXPECT_EQ(out.segments[0].records[0].clock, 5u);

  // A metadata key whose u16 length is over the 4096-byte string limit.
  std::string bad_meta = TraceWithPayload("", 0);
  const size_t key = bad_meta.find(std::string("\x01\x00k\x01\x00v", 6));
  ASSERT_NE(key, std::string::npos);
  bad_meta[key + 1] = '\x20';  // length 0x2001
  EXPECT_FALSE(TraceFile::Parse(bad_meta, &out, &error));
  EXPECT_NE(error.find("bad metadata entry"), std::string::npos) << error;
}

// No library code issues ThreadContext::StoreLine, so no recorded run holds a
// kStoreLine record; a hand-built segment does. A line store times exactly as
// Store64 does, so a Store64 run with its store records retagged replays
// through StoreLine to the same clocks and counters.
TEST(TraceReplayTest, HandBuiltStoreLineSegmentReplays) {
  const PlatformConfig config = *PlatformByName("g1");
  System recorded(config, 1);
  TraceRecorder recorder;
  recorded.SetTraceRecorder(&recorder);
  ThreadContext& ctx = recorded.CreateThread();
  const PmRegion pm = recorded.AllocatePm(KiB(4), kXPLineSize);
  for (uint64_t i = 0; i < 4; ++i) {
    ctx.Store64(pm.At(i * kXPLineSize), i);
    ctx.Clwb(pm.At(i * kXPLineSize));
  }
  ctx.Sfence();
  TraceSegment seg = recorder.Take("store_line", {});
  size_t retagged = 0;
  for (TraceRecord& rec : seg.records) {
    if (rec.op == TraceOp::kStore64) {
      rec.op = TraceOp::kStoreLine;
      ++retagged;
    }
  }
  ASSERT_EQ(retagged, 4u);

  System fresh(config, 1);
  const ReplayResult res = ReplaySegment(seg, fresh, {});
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.records_applied, seg.records.size());
  EXPECT_EQ(res.end_clock, ctx.clock());
  EXPECT_TRUE(fresh.counters() == recorded.counters());
}

// Fuzz: random op streams round-trip through serialize/parse losslessly and
// replay to the recorded counters. Seeds are fixed — failures reproduce.
TEST(TraceReplayTest, FuzzRandomOpStreamsRoundTripAndReplay) {
  const PlatformConfig config = *PlatformByName("g1");
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    System recorded(config, 1);
    TraceRecorder recorder;
    recorded.SetTraceRecorder(&recorder);
    const uint32_t nthreads = 1 + static_cast<uint32_t>(rng.NextBelow(3));
    std::vector<ThreadContext*> ctxs;
    const PmRegion pm = recorded.AllocatePm(KiB(64), kXPLineSize);
    const PmRegion dram = recorded.AllocateDram(KiB(8), kXPLineSize);
    for (uint32_t t = 0; t < nthreads; ++t) {
      ctxs.push_back(&recorded.CreateThread());
    }

    uint8_t buf[256] = {};
    const uint64_t ops = 80 + rng.NextBelow(80);
    for (uint64_t i = 0; i < ops; ++i) {
      ThreadContext& ctx = *ctxs[rng.NextBelow(nthreads)];
      const Addr a = pm.At(rng.NextBelow(KiB(64) / 64) * 64);
      switch (rng.NextBelow(12)) {
        case 0: (void)ctx.Load64(a); break;
        case 1: ctx.Store64(a, i); break;
        case 2: ctx.LoadLine(a); break;
        case 3: ctx.NtStore64(a, i); break;
        case 4: ctx.Clwb(a); break;
        case 5: ctx.Sfence(); break;
        case 6: ctx.Mfence(); break;
        case 7: ctx.Read(a, buf, 1 + rng.NextBelow(sizeof(buf))); break;
        case 8: ctx.Write(a, buf, 1 + rng.NextBelow(sizeof(buf))); break;
        case 9: ctx.AddCompute(1 + rng.NextBelow(50)); break;
        case 10: ctx.StreamCopyXPLine(pm.At(rng.NextBelow(KiB(64) / 256) * 256), dram.At(0)); break;
        case 11: {
          const Addr multi[4] = {pm.At(0), pm.At(320), pm.At(640), pm.At(960)};
          ctx.LoadMulti(multi, 1 + rng.NextBelow(4));
          break;
        }
      }
    }
    const Counters want = recorded.counters();

    TraceFile file;
    file.header = G1Header("fuzz");
    file.segments.push_back(recorder.Take("fuzz", {{"seed", std::to_string(seed)}}));
    const std::string bytes = file.Serialize();

    TraceFile parsed;
    std::string error;
    ASSERT_TRUE(TraceFile::Parse(bytes, &parsed, &error)) << "seed " << seed << ": " << error;
    ASSERT_EQ(parsed.Serialize(), bytes) << "seed " << seed;

    System fresh(config, 1);
    const ReplayResult res = ReplaySegment(parsed.segments[0], fresh, {});
    ASSERT_TRUE(res.ok) << "seed " << seed << ": " << res.error;
    EXPECT_TRUE(fresh.counters() == want) << "seed " << seed;
  }
}

TEST(TraceRecorderTest, TakeKeepsThreadTableForPhaseSegments) {
  const PlatformConfig config = *PlatformByName("g1");
  System system(config, 1);
  TraceRecorder recorder;
  system.SetTraceRecorder(&recorder);
  ThreadContext& ctx = system.CreateThread();
  const PmRegion pm = system.AllocatePm(KiB(4), kXPLineSize);

  ctx.Store64(pm.At(0), 1);
  const TraceSegment warm = recorder.Take("warm", {});
  ctx.Store64(pm.At(64), 2);
  const TraceSegment measure = recorder.Take("measure", {});

  EXPECT_EQ(warm.records.size(), 1u);
  EXPECT_EQ(measure.records.size(), 1u);
  EXPECT_EQ(warm.thread_nodes, measure.thread_nodes);
  // The second segment's deltas restart: its first record round-trips alone.
  TraceFile file;
  file.header = G1Header("phases");
  file.segments = {warm, measure};
  TraceFile parsed;
  std::string error;
  ASSERT_TRUE(TraceFile::Parse(file.Serialize(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.segments[1].records[0], measure.records[0]);
}

}  // namespace
}  // namespace pmemsim
