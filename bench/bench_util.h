// Shared helpers for the benches and tools: tiny flag parsing, the typed
// result rows, and the structured-telemetry flag every binary accepts:
//
//   --stats_json=<path>    write the binary's rows as machine-readable JSON
//                          (consumed by scripts/check_figures.py in CI)
//
// Every binary prints a "# <name> — <description>" header, then declares its
// CSV columns and emits typed rows against them: BenchReport renders each row
// as the CSV line on stdout and the --stats_json row from the same cells.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <strings.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/config.h"
#include "src/common/types.h"
#include "src/trace/counters.h"
#include "src/trace/json.h"

namespace pmemsim_bench {

// The --help notes of the flags that BenchReport and SweepRunner read for
// a binary, by flag name. Usage() prints each only if the binary read it.
inline constexpr std::pair<const char*, const char*> kSharedFlagNotes[] = {
    {"stats_json", "  --stats_json=<path>    write rows as JSON (for scripts/check_figures.py)\n"},
    {"jobs",
     "  --jobs=N               host parallelism ACROSS sweep points: N points\n"
     "                         run concurrently, each a complete independent\n"
     "                         simulation; output stays byte-identical to\n"
     "                         --jobs=1. Not to be confused with\n"
     "                         --engine_threads, the host parallelism WITHIN\n"
     "                         one point that benches with a partitioned\n"
     "                         serving tier (pmemsim_serve) accept; benches\n"
     "                         without a domain partition reject it.\n"},
};

// Tiny --name / --name=value parser. Every Has/Get* call declares its flag:
// the first read of a name records its --help entry (the default as the
// code uses it, and the choices of an enumerated flag), so the reads are the
// only place a flag or its default is written down. After querying all its
// flags, a binary calls RejectUnknown(), which answers --help from those
// entries and makes a typo (--stats-json for --stats_json) fail loudly
// instead of silently no-opping. Malformed values exit(2) with the
// offending flag named.
class Flags {
 public:
  // `notes` is the binary's --help prose after the flag list; it names no
  // default (the flag list shows each).
  Flags(int argc, char** argv, std::string notes = "") : notes_(std::move(notes)) {
    const std::string arg0 = argc > 0 ? argv[0] : "";
    program_ = arg0.substr(arg0.rfind('/') + 1);
    for (int i = 1; i < argc; ++i) {
      args_.emplace_back(argv[i]);
    }
  }

  bool Has(const std::string& name) const {
    Declare(name, "--" + name);
    for (const std::string& a : args_) {
      if (a == "--" + name) {
        return true;
      }
    }
    return false;
  }

  std::string Get(const std::string& name, const std::string& def) const {
    Declare(name, "--" + name + "=" + def);
    return Find(name).value_or(def);
  }

  uint64_t GetU64(const std::string& name, uint64_t def) const {
    Declare(name, "--" + name + "=" + std::to_string(def));
    const std::string v = Find(name).value_or("");
    return v.empty() ? def : ParseU64(name, v);
  }

  // GetU64 for counts that must not be zero (threads, strides, queue sizes).
  uint64_t GetPositiveU64(const std::string& name, uint64_t def) const {
    const uint64_t v = GetU64(name, def);
    if (v == 0) {
      BadValue(name, Find(name).value_or(""), "positive integer");
    }
    return v;
  }

  // GetU64 for 32-bit counts (threads, DIMMs, depths): a value above
  // UINT32_MAX exits(2) instead of being truncated.
  uint32_t GetU32(const std::string& name, uint32_t def) const {
    const uint64_t v = GetU64(name, def);
    if (v > UINT32_MAX) {
      BadValue(name, Find(name).value_or(""), "unsigned 32-bit integer");
    }
    return static_cast<uint32_t>(v);
  }

  // GetU32 for counts that must not be zero.
  uint32_t GetPositiveU32(const std::string& name, uint32_t def) const {
    const uint32_t v = GetU32(name, def);
    if (v == 0) {
      BadValue(name, Find(name).value_or(""), "positive integer");
    }
    return v;
  }

  // A comma-separated list (--mixes=a,b,e). An empty list or an empty
  // element exits(2).
  std::vector<std::string> GetList(const std::string& name, const std::string& def) const {
    const std::string v = Get(name, def);
    std::vector<std::string> items;
    for (size_t start = 0;;) {
      const size_t comma = v.find(',', start);
      const size_t end = comma == std::string::npos ? v.size() : comma;
      if (end == start) {
        BadValue(name, v, "comma-separated list without empty elements");
      }
      items.push_back(v.substr(start, end - start));
      if (comma == std::string::npos) {
        return items;
      }
      start = comma + 1;
    }
  }

  // GetList of counts that must not be zero (--threads=1,2,4), each element
  // validated as GetPositiveU64 validates one value.
  std::vector<uint64_t> GetPositiveU64List(const std::string& name, const std::string& def) const {
    std::vector<uint64_t> values;
    for (const std::string& item : GetList(name, def)) {
      values.push_back(ParseU64(name, item));
      if (values.back() == 0) {
        BadValue(name, item, "positive integer");
      }
    }
    return values;
  }

  // A byte count with an optional binary K/M/G suffix: "4096", "64K", "4M".
  // --help shows the default with the largest suffix that divides it.
  uint64_t GetSize(const std::string& name, uint64_t def) const {
    std::string shown = std::to_string(def);
    for (int shift = 30; shift >= 10; shift -= 10) {
      if (def != 0 && def % (1ull << shift) == 0) {
        shown = std::to_string(def >> shift) + "KMG"[shift / 10 - 1];
        break;
      }
    }
    Declare(name, "--" + name + "=" + shown);
    const std::string v = Find(name).value_or("");
    if (v.empty()) {
      return def;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
    const bool no_digits = end == v.c_str();
    int shift = 0;
    switch (*end) {
      case 'K':
      case 'k':
        shift = 10;
        break;
      case 'M':
      case 'm':
        shift = 20;
        break;
      case 'G':
      case 'g':
        shift = 30;
        break;
      default:
        break;
    }
    if (shift != 0) {
      ++end;
    }
    if (errno != 0 || no_digits || *end != '\0' || v[0] == '-' || parsed > (~0ull >> shift)) {
      BadValue(name, v, "byte count, e.g. 4096, 64K, 4M or 1G");
    }
    return static_cast<uint64_t>(parsed) << shift;
  }

  double GetDouble(const std::string& name, double def) const {
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%g", def);
    Declare(name, "--" + name + "=" + shown);
    const std::string v = Find(name).value_or("");
    if (v.empty()) {
      return def;
    }
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (errno != 0 || end == v.c_str() || *end != '\0') {
      BadValue(name, v, "number");
    }
    return parsed;
  }

  // One of an enumerated set of values, matched case-insensitively and
  // returned in the spelling of `choices`. Anything else (including an empty
  // value) exits(2) listing the choices, before the caller prints anything.
  std::string GetChoice(const std::string& name, const std::string& def,
                        const std::vector<std::string>& choices) const {
    std::string expected;
    for (const std::string& choice : choices) {
      expected += (expected.empty() ? "" : "|") + choice;
    }
    Declare(name, "--" + name + "=" + def, expected);
    const std::string v = Find(name).value_or(def);
    for (const std::string& choice : choices) {
      if (strcasecmp(v.c_str(), choice.c_str()) == 0) {
        return choice;
      }
    }
    BadValue(name, v, expected.c_str());
  }

  // A platform preset by PlatformByName name (--platform=g1|g2|g2-eadr).
  pmemsim::PlatformConfig GetPlatform(const std::string& name, const std::string& def) const {
    return *pmemsim::PlatformByName(GetChoice(name, def, pmemsim::PlatformNames()));
  }

  // --gen as the generations a sweep iterates, in G1, G2 order, each with its
  // "G1"/"G2" row label (--gen=g1|g2|both).
  struct GenerationChoice {
    pmemsim::Generation gen;
    const char* name;
  };
  std::vector<GenerationChoice> GetGenerations(const std::string& def) const {
    const std::string v = GetChoice("gen", def, {"g1", "g2", "both"});
    std::vector<GenerationChoice> gens;
    if (v != "g2") {
      gens.push_back({pmemsim::Generation::kG1, "G1"});
    }
    if (v != "g1") {
      gens.push_back({pmemsim::Generation::kG2, "G2"});
    }
    return gens;
  }

  // Exits(2) naming a flag with an unusable value. Public so benches can
  // reject domain-invalid values (e.g. a working set below one stride)
  // through the same error path as malformed numbers.
  [[noreturn]] static void BadValue(const std::string& name, const std::string& v,
                                    const char* expected) {
    std::fprintf(stderr, "error: invalid value for --%s: '%s' (expected %s)\n", name.c_str(),
                 v.c_str(), expected);
    std::exit(2);
  }

  // The --help text: "usage: <program>", then one "[--name=default]" line
  // per flag read so far, in first-read order ("[--name]" for a Has flag,
  // followed by the choices of an enumerated one), then the notes and the
  // kSharedFlagNotes entry of each shared flag read so far.
  std::string Usage() const {
    std::string text = "usage: " + program_ + "\n";
    for (const auto& [name, line] : declared_) {
      text += "  " + line + "\n";
    }
    if (!notes_.empty()) {
      text += notes_ + "\n";
    }
    for (const auto& [name, note] : kSharedFlagNotes) {
      if (Declared(name)) {
        text += note;
      }
    }
    return text;
  }

  // Call after the last Get/Has (flag queries declare names, so order
  // matters). --help prints Usage() and exits(0); otherwise exits(2) naming
  // any --flag whose name was never queried.
  void RejectUnknown() const {
    for (const std::string& a : args_) {
      if (a == "--help") {
        std::fputs(Usage().c_str(), stdout);
        std::exit(0);
      }
    }
    for (const std::string& a : args_) {
      if (a.rfind("--", 0) != 0) {
        std::fprintf(stderr, "error: unexpected argument '%s'\n", a.c_str());
        std::exit(2);
      }
      const size_t eq = a.find('=');
      const std::string name =
          eq == std::string::npos ? a.substr(2) : a.substr(2, eq - 2);
      if (!Declared(name)) {
        std::fprintf(stderr, "error: unrecognized flag '--%s' (see --help)\n", name.c_str());
        std::exit(2);
      }
    }
  }

 private:
  bool Declared(const std::string& name) const {
    return std::any_of(declared_.begin(), declared_.end(),
                       [&](const auto& entry) { return entry.first == name; });
  }

  // Records `usage` ("--name" or "--name=default") and the accepted `form`
  // as the flag's --help line on the first read of `name`.
  void Declare(const std::string& name, const std::string& usage,
               const std::string& form = "") const {
    if (Declared(name)) {
      return;
    }
    std::string line = "[" + usage + "]";
    if (!form.empty()) {
      line.resize(std::max<size_t>(line.size() + 2, 26), ' ');
      line += form;
    }
    declared_.emplace_back(name, std::move(line));
  }

  // The value of --name=value (possibly empty), or nullopt when absent.
  std::optional<std::string> Find(const std::string& name) const {
    const std::string prefix = "--" + name + "=";
    for (const std::string& a : args_) {
      if (a.rfind(prefix, 0) == 0) {
        return a.substr(prefix.size());
      }
    }
    return std::nullopt;
  }

  // A decimal unsigned integer; anything else (a sign, a suffix, overflow)
  // exits(2) naming the flag.
  static uint64_t ParseU64(const std::string& name, const std::string& v) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
    if (errno != 0 || end == v.c_str() || *end != '\0' || v[0] == '-') {
      BadValue(name, v, "unsigned integer");
    }
    return parsed;
  }

  std::vector<std::string> args_;
  std::string program_;
  std::string notes_;
  // (name, --help line) per flag read so far, in first-read order; mutable
  // because Get/Has are logically const reads.
  mutable std::vector<std::pair<std::string, std::string>> declared_;
};

// Host wall-clock seconds on the steady clock: what the perf_* harnesses time.
inline double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The median of `v`: the middle value, or the mean of the middle two.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("# %s — %s\n", figure, description);
}

// Writes `text` to `path`; on failure names the path on stderr and returns
// false.
inline bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

// Collects the binary's result rows and writes them as JSON when the user
// passed --stats_json.
//
//   BenchReport report(flags, "perf_serve");
//   report.DeclareColumns({"workload", "threads", "speedup_vs_1t"});
//   report.Emit(Row().Set("workload", name).Set("threads", t).Set("speedup_vs_1t", x, 2));
//   return report.Finish();   // from main()
//
// Rows made inside a sweep point go through SweepPoint::Emit instead, which
// the sweep runner hands to Emit in submission order.
class BenchReport {
 public:
  // One result row: named, typed cells in column order. The JSON report
  // writes every cell; Csv() renders the same cells as one CSV line.
  class Row {
   public:
    Row& Set(const char* name, const std::string& v) {
      cells_.emplace_back(name, Cell{Cell::kString, 0, 0.0, 0, v});
      return *this;
    }
    Row& Set(const char* name, const char* v) { return Set(name, std::string(v)); }
    // A double that prints in CSV as %.<precision>f. A double always names
    // its precision: there is no overload without one.
    Row& Set(const char* name, double v, int precision) {
      cells_.emplace_back(name, Cell{Cell::kDouble, 0, v, precision, {}});
      return *this;
    }
    Row& Set(const char* name, double v) = delete;
    Row& Set(const char* name, uint64_t v) {
      cells_.emplace_back(name, Cell{Cell::kUint, v, 0.0, 0, {}});
      return *this;
    }
    Row& Set(const char* name, int v) { return Set(name, static_cast<uint64_t>(v)); }
    Row& Set(const char* name, uint32_t v) { return Set(name, static_cast<uint64_t>(v)); }

    // True when the cell names are exactly `columns`, in order.
    bool HasColumns(const std::vector<std::string>& columns) const {
      return std::equal(cells_.begin(), cells_.end(), columns.begin(), columns.end(),
                        [](const auto& cell, const std::string& c) { return cell.first == c; });
    }

    // The cells as one CSV line: a uint as %llu, a double as %.<precision>f
    // and a string as is, or (RFC 4180) in double quotes with each inner
    // quote doubled when it holds a comma, a quote or a line break.
    std::string Csv() const {
      std::string line;
      for (const auto& [name, cell] : cells_) {
        if (&cell != &cells_.front().second) {
          line.push_back(',');
        }
        switch (cell.kind) {
          case Cell::kUint:
            line += std::to_string(cell.u);
            break;
          case Cell::kDouble: {
            const int n = std::snprintf(nullptr, 0, "%.*f", cell.precision, cell.d);
            const size_t old = line.size();
            line.resize(old + static_cast<size_t>(n) + 1);
            std::snprintf(&line[old], static_cast<size_t>(n) + 1, "%.*f", cell.precision, cell.d);
            line.resize(old + static_cast<size_t>(n));  // drop the NUL
            break;
          }
          case Cell::kString:
            if (cell.s.find_first_of(",\"\r\n") == std::string::npos) {
              line += cell.s;
              break;
            }
            line.push_back('"');
            for (const char c : cell.s) {
              if (c == '"') {
                line.push_back('"');
              }
              line.push_back(c);
            }
            line.push_back('"');
            break;
        }
      }
      line.push_back('\n');
      return line;
    }

   private:
    friend class BenchReport;
    struct Cell {
      enum Kind { kUint, kDouble, kString } kind;
      uint64_t u;
      double d;
      int precision;
      std::string s;
    };
    std::vector<std::pair<std::string, Cell>> cells_;
  };

  // `default_stats_path` lets a bench opt into writing its report even when
  // --stats_json is absent (perf_hotpath commits its trajectory baseline at
  // the repo root); pass --stats_json= (empty) to suppress it.
  BenchReport(const Flags& flags, const std::string& bench_name,
              const std::string& default_stats_path = "")
      : bench_name_(bench_name),
        stats_path_(flags.Get("stats_json", default_stats_path)) {}

  // Declares the columns of the rows Emit() takes from here on and prints
  // them as the CSV column line. A binary with two row shapes declares each
  // before its rows.
  void DeclareColumns(std::vector<std::string> columns) {
    columns_ = std::move(columns);
    std::string line;
    for (const std::string& column : columns_) {
      line += (line.empty() ? "" : ",") + column;
    }
    std::printf("%s\n", line.c_str());
  }

  // Prints `row` as its CSV line and adds it to the report. The row's cell
  // names must equal the declared columns.
  void Emit(Row row) {
    PMEMSIM_CHECK_MSG(row.HasColumns(columns_), "row keys differ from the declared columns");
    const std::string line = row.Csv();
    std::fwrite(line.data(), 1, line.size(), stdout);
    rows_.push_back(std::move(row));
  }

  // Attaches a labelled counter snapshot (e.g. the final system counters).
  void AddCounters(const std::string& label, const pmemsim::Counters& counters) {
    counters_.emplace_back(label, counters);
  }

  // Embeds `raw_json` — one complete JSON value — as a top-level section of
  // the stats report (e.g. "attribution" for AttributionCollector::ToJson).
  void AddSection(const std::string& key, std::string raw_json) {
    sections_.emplace_back(key, std::move(raw_json));
  }

  // Writes the JSON report if requested. Returns a process exit code: 0 on
  // success (or nothing to write), 1 on I/O failure.
  int Finish() {
    if (stats_path_.empty()) {
      return 0;
    }
    pmemsim::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Value(uint64_t{1});
    w.Key("bench").Value(bench_name_);
    w.Key("rows").BeginArray();
    for (const Row& row : rows_) {
      w.BeginObject();
      for (const auto& [name, cell] : row.cells_) {
        w.Key(name);
        switch (cell.kind) {
          case Row::Cell::kUint:
            w.Value(cell.u);
            break;
          case Row::Cell::kDouble:
            w.Value(cell.d);
            break;
          case Row::Cell::kString:
            w.Value(cell.s);
            break;
        }
      }
      w.EndObject();
    }
    w.EndArray();
    if (!counters_.empty()) {
      w.Key("counters").BeginObject();
      for (const auto& [label, counters] : counters_) {
        w.Key(label);
        counters.ToJson(w);
      }
      w.EndObject();
    }
    for (const auto& [key, raw] : sections_) {
      w.Key(key).Raw(raw);
    }
    w.EndObject();

    if (!WriteFile(stats_path_, w.str())) {
      return 1;
    }
    stats_path_.clear();
    return 0;
  }

 private:
  friend class SweepRunner;

  // The sweep runner's row for a failed point, outside the declared
  // columns: "error,<label>" on stdout, {"point", "error"} in the report.
  void EmitError(const std::string& label, const std::string& message) {
    std::printf("error,%s\n", label.c_str());
    rows_.emplace_back();
    rows_.back().Set("point", label).Set("error", message);
  }

  std::string bench_name_;
  std::string stats_path_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, pmemsim::Counters>> counters_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

using Row = BenchReport::Row;

}  // namespace pmemsim_bench

#endif  // BENCH_BENCH_UTIL_H_
