// Tests for the parallel sweep runner: submission-order emission at any job
// count, byte-identical --stats_json output, and per-point failure isolation.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/sweep_runner.h"
#include "src/common/check.h"

namespace pmemsim_bench {
namespace {

// Builds Flags from a convenient literal list (Flags wants argc/argv).
Flags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  argv.push_back(const_cast<char*>("test"));
  for (std::string& a : storage) {
    argv.push_back(a.data());
  }
  return Flags(static_cast<int>(argv.size()), argv.data());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs a 12-point sweep whose points busy-work different amounts (so that
// with several workers the completion order differs from submission order)
// and returns {captured stdout, stats_json contents, exit code}.
struct SweepResult {
  std::string out;
  std::string stats;
  int rc;
};

SweepResult RunStaggeredSweep(uint32_t jobs, const std::string& stats_path) {
  const Flags flags =
      MakeFlags({"--jobs=" + std::to_string(jobs), "--stats_json=" + stats_path});
  BenchReport report(flags, "sweep_runner_test");
  SweepRunner runner(flags);
  for (int i = 0; i < 12; ++i) {
    runner.Add("p" + std::to_string(i), [i](SweepPoint& point) {
      // Later points finish first: descending busy-work per index.
      volatile uint64_t sink = 0;
      for (uint64_t k = 0; k < (12u - static_cast<uint64_t>(i)) * 20000u; ++k) {
        sink = sink + k;
      }
      point.Emit(Row().Set("kind", "point").Set("index", i).Set("sink", sink % 7));
    });
  }
  testing::internal::CaptureStdout();
  report.DeclareColumns({"kind", "index", "sink"});
  const int rc = runner.Finish(report);
  SweepResult r;
  r.out = testing::internal::GetCapturedStdout();
  r.stats = ReadFile(stats_path);
  r.rc = rc;
  return r;
}

TEST(SweepRunnerTest, ParallelOutputMatchesSerialByteForByte) {
  const std::string dir = testing::TempDir();
  const SweepResult serial = RunStaggeredSweep(1, dir + "/sweep_j1.json");
  const SweepResult sharded = RunStaggeredSweep(4, dir + "/sweep_j4.json");
  EXPECT_EQ(serial.rc, 0);
  EXPECT_EQ(sharded.rc, 0);
  // Submission order, not completion order: p0 (slowest) still prints first.
  // The rows print as "point,%d,%llu" did.
  EXPECT_EQ(serial.out,
            "kind,index,sink\n"
            "point,0,3\npoint,1,6\npoint,2,3\npoint,3,1\npoint,4,0\npoint,5,0\n"
            "point,6,1\npoint,7,3\npoint,8,6\npoint,9,3\npoint,10,1\npoint,11,0\n");
  EXPECT_EQ(serial.out, sharded.out);
  EXPECT_EQ(serial.stats.rfind("{\"schema_version\":1,\"bench\":\"sweep_runner_test\",\"rows\":"
                               "[{\"kind\":\"point\",\"index\":0,\"sink\":3},",
                               0),
            0u);
  EXPECT_EQ(serial.stats, sharded.stats);
}

TEST(SweepRunnerTest, ThrowingPointIsIsolated) {
  const Flags flags = MakeFlags({"--jobs=4"});
  BenchReport report(flags, "sweep_runner_test");
  SweepRunner runner(flags);
  std::atomic<int> survivors{0};  // the points may run on different workers
  runner.Add("ok_before", [&](SweepPoint& point) {
    point.Emit(Row().Set("name", "ok_before"));
    ++survivors;
  });
  runner.Add("boom", [](SweepPoint&) { throw std::runtime_error("deliberate"); });
  runner.Add("ok_after", [&](SweepPoint& point) {
    point.Emit(Row().Set("name", "ok_after"));
    ++survivors;
  });
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  report.DeclareColumns({"name"});
  const int rc = runner.Finish(report);
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(rc, 0);
  EXPECT_EQ(survivors.load(), 2);  // the failure did not stop the sweep
  EXPECT_EQ(out, "name\nok_before\nerror,boom\nok_after\n");
  EXPECT_NE(err.find("deliberate"), std::string::npos);
}

TEST(SweepRunnerTest, CheckFailureBecomesErrorRowNotAbort) {
  const Flags flags = MakeFlags({"--jobs=2"});
  BenchReport report(flags, "sweep_runner_test");
  SweepRunner runner(flags);
  runner.Add("check_fails", [](SweepPoint&) { PMEMSIM_CHECK_MSG(false, "tripped"); });
  runner.Add("fine", [](SweepPoint& point) { point.Emit(Row().Set("name", "fine")); });
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  report.DeclareColumns({"name"});
  const int rc = runner.Finish(report);
  const std::string out = testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  EXPECT_NE(rc, 0);
  EXPECT_EQ(out, "name\nerror,check_fails\nfine\n");
}

TEST(SweepRunnerTest, RowsStreamBeforeTheLastPointFinishes) {
  // Point 1 waits until point 0's row is on stdout. A runner that held rows
  // back until every point had finished would leave it waiting until the
  // timeout. stdout goes to a file that point 1 can read while the sweep runs.
  const std::string path = testing::TempDir() + "/sweep_stream.out";
  std::fflush(stdout);
  const int saved = dup(STDOUT_FILENO);
  const int fd = open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(saved, 0);
  ASSERT_GE(fd, 0);
  ASSERT_GE(dup2(fd, STDOUT_FILENO), 0);
  close(fd);

  const Flags flags = MakeFlags({"--jobs=2"});
  BenchReport report(flags, "sweep_runner_test");
  SweepRunner runner(flags);
  report.DeclareColumns({"index"});
  std::fflush(stdout);
  bool timed_out = false;
  runner.Add("p0", [](SweepPoint& point) { point.Emit(Row().Set("index", 0)); });
  runner.Add("p1", [&](SweepPoint& point) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (ReadFile(path) != "index\n0\n") {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    point.Emit(Row().Set("index", 1));
  });
  const int rc = runner.Finish(report);

  std::fflush(stdout);
  dup2(saved, STDOUT_FILENO);
  close(saved);
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(timed_out) << "point 0's row was held back until point 1 finished";
  EXPECT_EQ(ReadFile(path), "index\n0\n1\n");
}

TEST(SweepRunnerTest, JobsZeroClampsToOne) {
  const Flags flags = MakeFlags({"--jobs=0"});
  SweepRunner runner(flags);
  EXPECT_EQ(runner.jobs(), 1u);
}

TEST(SweepRunnerTest, UnqueriedEngineThreadsFlagExitsTwo) {
  // --engine_threads parallelizes WITHIN one sweep point and only the
  // partitioned serving engine implements it. Benches that never query the
  // flag (every fig*/ablation_* sweep) must reject it loudly at exit 2 via
  // RejectUnknown, not silently run single-domain and report wrong context.
  const Flags flags = MakeFlags({"--jobs=2", "--engine_threads=4"});
  SweepRunner runner(flags);  // queries --jobs; --engine_threads stays unknown
  EXPECT_EXIT(flags.RejectUnknown(), testing::ExitedWithCode(2),
              "unrecognized flag '--engine_threads'");
}

// The CSV line and stats row of one emitted point, captured from a
// single-point sweep with the given declared columns.
SweepResult RunOnePoint(const std::vector<std::string>& columns,
                        const std::function<void(SweepPoint&)>& fn,
                        const std::string& stats_path) {
  const Flags flags = MakeFlags({"--stats_json=" + stats_path});
  BenchReport report(flags, "sweep_runner_test");
  SweepRunner runner(flags);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  report.DeclareColumns(columns);
  runner.Add("point", fn);
  SweepResult r;
  r.rc = runner.Finish(report);
  r.out = testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  r.stats = ReadFile(stats_path);
  return r;
}

TEST(SweepPointTest, EmitRendersEachCellKindAsTheOldPrintfAndRow) {
  const char* gen = "G2";
  const uint64_t big = ~uint64_t{0};
  const uint32_t cpx = 3;
  const double ratio = 0.0005;  // a %.3f rounding edge
  const double cycles = 1234.25;
  const double mops = 2.5;
  const SweepResult emitted = RunOnePoint(
      {"gen", "wss_kb", "cpx", "ratio", "cycles", "mops"},
      [&](SweepPoint& point) {
        point.Emit(Row()
                       .Set("gen", gen)
                       .Set("wss_kb", big)
                       .Set("cpx", cpx)
                       .Set("ratio", ratio, 3)
                       .Set("cycles", cycles, 1)
                       .Set("mops", mops, 0));
      },
      testing::TempDir() + "/emit_new.json");
  EXPECT_EQ(emitted.rc, 0);
  // The declared columns are the header line; the row prints as
  // printf("%s,%llu,%u,%.3f,%.1f,%.0f\n", ...) did, and the JSON row keeps
  // every double at full precision.
  EXPECT_EQ(emitted.out,
            "gen,wss_kb,cpx,ratio,cycles,mops\n"
            "G2,18446744073709551615,3,0.001,1234.2,2\n");
  EXPECT_EQ(emitted.stats,
            "{\"schema_version\":1,\"bench\":\"sweep_runner_test\",\"rows\":[{\"gen\":\"G2\","
            "\"wss_kb\":18446744073709551615,\"cpx\":3,\"ratio\":0.00050000000000000001,"
            "\"cycles\":1234.25,\"mops\":2.5}]}");
}

TEST(SweepPointTest, StringCellsAreQuotedAsRfc4180) {
  const SweepResult r = RunOnePoint(
      {"store", "first_violation", "note"},
      [](SweepPoint& point) {
        point.Emit(Row()
                       .Set("store", "redo")
                       .Set("first_violation", "redo: target 3 holds 7, want committed 9")
                       .Set("note", "say \"hi\"\nbye"));
      },
      testing::TempDir() + "/emit_quoted.json");
  EXPECT_EQ(r.rc, 0);
  EXPECT_EQ(r.out,
            "store,first_violation,note\n"
            "redo,\"redo: target 3 holds 7, want committed 9\",\"say \"\"hi\"\"\nbye\"\n");
  // The JSON keeps the string as is.
  EXPECT_NE(r.stats.find("\"first_violation\":\"redo: target 3 holds 7, want committed 9\""),
            std::string::npos);
}

TEST(SweepPointTest, RowNotMatchingTheColumnsBecomesAnErrorRow) {
  const std::string dir = testing::TempDir();
  const std::vector<std::string> columns = {"gen", "value"};
  const std::vector<std::pair<std::string, Row>> bad_rows = {
      {"renamed", Row().Set("gen", "G1").Set("val", 1.0, 3)},
      {"missing", Row().Set("gen", "G1")},
      {"extra", Row().Set("gen", "G1").Set("value", 1.0, 3).Set("more", 1)},
      {"reordered", Row().Set("value", 1.0, 3).Set("gen", "G1")},
  };
  for (const auto& [name, row] : bad_rows) {
    const SweepResult r = RunOnePoint(
        columns, [&row](SweepPoint& point) { point.Emit(row); }, dir + "/emit_bad.json");
    EXPECT_EQ(r.rc, 1) << name;
    EXPECT_EQ(r.out, "gen,value\nerror,point\n") << name;
    EXPECT_NE(r.stats.find("\"error\""), std::string::npos) << name;
  }
  const SweepResult good = RunOnePoint(
      columns,
      [](SweepPoint& point) { point.Emit(Row().Set("gen", "G1").Set("value", 1.0, 3)); },
      dir + "/emit_good.json");
  EXPECT_EQ(good.rc, 0);
  EXPECT_EQ(good.out, "gen,value\nG1,1.000\n");
}

TEST(BenchReportTest, RowsMadeOutsideAPointEmitAgainstTheirOwnColumns) {
  // A binary with two row shapes (crashcheck's points, then its summary)
  // declares each column set before its rows.
  const std::string path = testing::TempDir() + "/report_emit.json";
  const Flags flags = MakeFlags({"--stats_json=" + path});
  BenchReport report(flags, "sweep_runner_test");
  SweepRunner runner(flags);
  runner.Add("point", [](SweepPoint& point) { point.Emit(Row().Set("point", 7)); });
  testing::internal::CaptureStdout();
  report.DeclareColumns({"point"});
  EXPECT_EQ(runner.Run(report), 0);
  report.DeclareColumns({"summary", "ratio"});
  report.Emit(Row().Set("summary", 1).Set("ratio", 0.25, 2));
  const int rc = runner.Finish(report);  // the points already ran
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "point\n7\nsummary,ratio\n1,0.25\n");
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(ReadFile(path),
            "{\"schema_version\":1,\"bench\":\"sweep_runner_test\",\"rows\":[{\"point\":7},"
            "{\"summary\":1,\"ratio\":0.25}]}");
  EXPECT_DEATH(report.Emit(Row().Set("point", 8)), "row keys differ from the declared columns");
}

TEST(SweepTest, HelpPrintsUsageAndExitsZero) {
  char arg0[] = "fig99";
  char help[] = "--help";
  char* argv[] = {arg0, help};
  Sweep sweep(2, argv, "fig99");
  sweep.flags().GetU64("max_kb", 4);
  EXPECT_EXIT(sweep.Start("Figure 99", "help", {"wss_kb"}), testing::ExitedWithCode(0), "");
}

TEST(FlagsTest, UsageShowsEachGettersDefaultAndForm) {
  // A given value does not change the shown default.
  const Flags flags = MakeFlags({"--ops=7", "--wss=1K"});
  flags.GetU64("ops", 600000);
  flags.GetPositiveU64("threads", 1);
  flags.GetSize("wss", 64ull << 20);
  flags.GetSize("odd", 4097);
  flags.GetDouble("theta", 0.99);
  flags.Get("store", "cceh");
  flags.Get("out", "");
  flags.GetList("mixes", "a,b");
  flags.GetPositiveU64List("sizes", "1,4");
  flags.GetChoice("panel", "all", {"pm-local", "all"});
  flags.GetPlatform("platform", "g1");
  flags.GetGenerations("both");
  flags.Has("random");
  const std::string want =
      "usage: test\n"
      "  [--ops=600000]\n"
      "  [--threads=1]\n"
      "  [--wss=64M]\n"
      "  [--odd=4097]\n"
      "  [--theta=0.99]\n"
      "  [--store=cceh]\n"
      "  [--out=]\n"
      "  [--mixes=a,b]\n"
      "  [--sizes=1,4]\n"
      "  [--panel=all]             pm-local|all\n"
      "  [--platform=g1]           g1|g2|g2-eadr\n"
      "  [--gen=both]              g1|g2|both\n"
      "  [--random]\n";
  EXPECT_EQ(flags.Usage(), want);
}

TEST(FlagsTest, UsageListsFlagsInFirstReadOrderOnce) {
  char arg0[] = "/path/to/fig99";
  char* argv[] = {arg0};
  const Flags flags(1, argv, "Prose about the run.");
  flags.GetU64("b", 2);
  flags.Get("a", "x");
  flags.GetU64("b", 3);  // a second read keeps the first entry
  flags.Has("a");
  const std::string want =
      "usage: fig99\n"
      "  [--b=2]\n"
      "  [--a=x]\n"
      "Prose about the run.\n";
  EXPECT_EQ(flags.Usage(), want);
}

TEST(FlagsTest, UsageNotesOnlyTheSharedFlagsItRead) {
  const Flags flags = MakeFlags({});
  flags.GetU64("ops", 10);
  EXPECT_EQ(flags.Usage(), "usage: test\n  [--ops=10]\n");
  flags.GetU64("jobs", 1);
  EXPECT_EQ(flags.Usage().find("--stats_json"), std::string::npos) << flags.Usage();
  flags.Get("stats_json", "");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("\n  --jobs=N "), std::string::npos) << usage;
  EXPECT_NE(usage.find("\n  --stats_json=<path> "), std::string::npos) << usage;
  // The notes follow the flag list, in kSharedFlagNotes order.
  EXPECT_LT(usage.find("[--stats_json=]"), usage.find("  --stats_json=<path>"));
  EXPECT_LT(usage.find("  --stats_json=<path>"), usage.find("  --jobs=N"));
}

TEST(FlagsTest, HelpAnswersAtRejectUnknownAfterTheReads) {
  const Flags flags = MakeFlags({"--help", "--not_a_flag"});
  flags.GetU64("max_kb", 32);
  EXPECT_EXIT(flags.RejectUnknown(), testing::ExitedWithCode(0), "");
  const Flags typo = MakeFlags({"--max-kb=4"});
  typo.GetU64("max_kb", 32);
  EXPECT_EXIT(typo.RejectUnknown(), testing::ExitedWithCode(2), "unrecognized flag '--max-kb'");
}

TEST(FlagsTest, GetChoiceReturnsTheChoiceSpellingOrExitsTwo) {
  const Flags flags = MakeFlags({"--gen=G2", "--panel=bogus", "--empty="});
  EXPECT_EQ(flags.GetChoice("gen", "both", {"g1", "g2", "both"}), "g2");
  EXPECT_EQ(flags.GetChoice("absent", "both", {"g1", "g2", "both"}), "both");
  EXPECT_EXIT(flags.GetChoice("panel", "all", {"pm-local", "all"}), testing::ExitedWithCode(2),
              "invalid value for --panel: 'bogus' \\(expected pm-local\\|all\\)");
  EXPECT_EXIT(flags.GetChoice("empty", "all", {"all"}), testing::ExitedWithCode(2),
              "invalid value for --empty");
}

TEST(FlagsTest, GetGenerationsListsTheSelectedGenerationsInOrder) {
  auto names = [](const std::vector<std::string>& args, const char* def) {
    std::string out;
    for (const auto& g : MakeFlags(args).GetGenerations(def)) {
      out += g.name;
    }
    return out;
  };
  EXPECT_EQ(names({}, "both"), "G1G2");
  EXPECT_EQ(names({}, "g1"), "G1");
  EXPECT_EQ(names({"--gen=g2"}, "both"), "G2");
  EXPECT_EQ(names({"--gen=both"}, "g1"), "G1G2");
  EXPECT_EXIT(names({"--gen=g3"}, "both"), testing::ExitedWithCode(2),
              "invalid value for --gen: 'g3'");
}

TEST(FlagsTest, GetPlatformTakesThePresetNames) {
  const Flags flags = MakeFlags({"--platform=G2-eADR", "--bad=g3"});
  EXPECT_TRUE(flags.GetPlatform("platform", "g1").eadr_enabled);
  EXPECT_EQ(flags.GetPlatform("absent", "g2").generation, pmemsim::Generation::kG2);
  EXPECT_EXIT(flags.GetPlatform("bad", "g1"), testing::ExitedWithCode(2),
              "invalid value for --bad: 'g3' \\(expected g1\\|g2\\|g2-eadr\\)");
}

TEST(FlagsTest, GetSizeTakesBinarySuffixes) {
  const Flags flags = MakeFlags({"--a=4096", "--b=64K", "--c=4m", "--d=1G"});
  EXPECT_EQ(flags.GetSize("a", 0), 4096u);
  EXPECT_EQ(flags.GetSize("b", 0), 64u << 10);
  EXPECT_EQ(flags.GetSize("c", 0), 4u << 20);
  EXPECT_EQ(flags.GetSize("d", 0), 1ull << 30);
  EXPECT_EQ(flags.GetSize("absent", 7), 7u);
}

TEST(FlagsTest, GetSizeRejectsMalformedSizesWithExitTwo) {
  for (const char* bad : {"--wss=4MB", "--wss=M", "--wss=-4K", "--wss=99999999999999G"}) {
    const Flags flags = MakeFlags({bad});
    EXPECT_EXIT(flags.GetSize("wss", 0), testing::ExitedWithCode(2), "invalid value for --wss")
        << bad;
  }
}

TEST(FlagsTest, GetU32RejectsValuesAboveUint32MaxWithExitTwo) {
  const Flags flags = MakeFlags({"--max=4294967295", "--wrap=4294967297", "--zero=0"});
  EXPECT_EQ(flags.GetU32("max", 1), UINT32_MAX);
  EXPECT_EQ(flags.GetU32("zero", 1), 0u);
  EXPECT_EQ(flags.GetPositiveU32("absent", 3), 3u);
  EXPECT_EXIT(flags.GetU32("wrap", 1), testing::ExitedWithCode(2),
              "invalid value for --wrap: '4294967297'");
  EXPECT_EXIT(flags.GetPositiveU32("wrap", 1), testing::ExitedWithCode(2),
              "invalid value for --wrap: '4294967297'");
  EXPECT_EXIT(flags.GetPositiveU32("zero", 1), testing::ExitedWithCode(2),
              "invalid value for --zero: '0'");
  // --jobs=0 still means one worker; 2^32 + 1 no longer wraps to it.
  EXPECT_EQ(SweepRunner(MakeFlags({"--jobs=0"})).jobs(), 1u);
  EXPECT_EXIT((void)SweepRunner(MakeFlags({"--jobs=4294967297"})), testing::ExitedWithCode(2),
              "invalid value for --jobs: '4294967297'");
}

TEST(BenchReportTest, SamplesJsonIsNotABenchFlag) {
  // Only pmemsim_watch produces an interval series and queries the flag
  // itself; a bench that builds a BenchReport must reject it as unknown.
  const Flags flags = MakeFlags({"--samples_json=/dev/null"});
  BenchReport report(flags, "test_bench");
  EXPECT_EXIT(flags.RejectUnknown(), testing::ExitedWithCode(2),
              "unrecognized flag '--samples_json'");
}

}  // namespace
}  // namespace pmemsim_bench
