#!/usr/bin/env python3
"""Gate paper-figure bench results against checked-in expectation bands.

Each bench emits machine-readable results via --stats_json=<path>; each
expectation file in bench/expectations/ describes checks over those rows:

    {
      "bench": "fig02_read_buffer",
      "checks": [
        {
          "name": "g1_cpx4_inside_buffer",
          "select": {"gen": "G1", "cpx": 4, "wss_kb": {"max": 14}},
          "metric": "read_amplification",
          "agg": "max",              # one of: min, max, mean
          "band": {"min": 0.95, "max": 1.1},
          "min_rows": 5              # optional; default 1
        }
      ]
    }

`select` matches rows by equality, or by {"min": x} / {"max": y} range on
numeric fields. The aggregated metric over the selected rows must fall inside
`band`. Exits non-zero on any violation (or on empty selections), so CI can
use this directly as a regression gate.

Usage:
    check_figures.py --stats <dir or files...> \
        [--expectations bench/expectations] [--only fig02_read_buffer ...] \
        [--report]

--report prints every check's observed value (also on success), which is how
expectation bands are regenerated after an intentional model change: run the
benches, eyeball the report, update the bands.
"""

import argparse
import json
import pathlib
import sys


def row_matches(row, select):
    for field, want in select.items():
        if field not in row:
            return False
        have = row[field]
        if isinstance(want, dict):
            if not isinstance(have, (int, float)):
                return False
            if "min" in want and have < want["min"]:
                return False
            if "max" in want and have > want["max"]:
                return False
        else:
            if have != want:
                return False
    return True


def aggregate(values, how):
    if how == "min":
        return min(values)
    if how == "max":
        return max(values)
    if how == "mean":
        return sum(values) / len(values)
    raise ValueError(f"unknown agg {how!r}")


def run_check(check, rows):
    """Returns (ok, observed, detail)."""
    selected = [r for r in rows if row_matches(r, check.get("select", {}))]
    min_rows = check.get("min_rows", 1)
    if len(selected) < min_rows:
        return False, None, f"selected {len(selected)} rows, need >= {min_rows}"
    metric = check["metric"]
    values = []
    for r in selected:
        if metric not in r:
            return False, None, f"row missing metric {metric!r}: {r}"
        values.append(r[metric])
    observed = aggregate(values, check.get("agg", "mean"))
    band = check["band"]
    ok = band.get("min", float("-inf")) <= observed <= band.get("max", float("inf"))
    detail = (
        f"{check.get('agg', 'mean')}({metric}) over {len(selected)} rows = "
        f"{observed:.4f}, band [{band.get('min', '-inf')}, {band.get('max', 'inf')}]"
    )
    return ok, observed, detail


def load_stats(paths):
    """Maps bench name -> parsed stats JSON, from files or directories.

    Files named explicitly must be stats files; when scanning a directory,
    JSON files without a "bench" field (e.g. pmemsim_watch --samples_json
    files) are skipped.
    """
    stats = {}
    files = []
    for p in paths:
        p = pathlib.Path(p)
        if p.is_dir():
            files.extend((f, False) for f in sorted(p.glob("*.json")))
        elif p.is_file():
            files.append((p, True))
        else:
            sys.exit(f"error: --stats path {p} does not exist")
    for f, explicit in files:
        with open(f, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as e:
                sys.exit(f"error: {f} is not valid JSON: {e}")
        name = doc.get("bench") if isinstance(doc, dict) else None
        if not name:
            if explicit:
                sys.exit(f"error: {f} has no 'bench' field")
            continue
        if name in stats:
            sys.exit(f"error: bench {name!r} appears in both "
                     f"{stats[name]['_file']} and {f}")
        doc["_file"] = str(f)
        stats[name] = doc
    return stats


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", nargs="+", required=True,
                        help="stats_json files, or directories of them")
    parser.add_argument("--expectations", default="bench/expectations",
                        help="directory of expectation files")
    parser.add_argument("--only", nargs="*", default=None,
                        help="restrict to these bench names")
    parser.add_argument("--report", action="store_true",
                        help="print observed values for every check")
    args = parser.parse_args()

    stats = load_stats(args.stats)
    expectation_files = sorted(pathlib.Path(args.expectations).glob("*.json"))
    if not expectation_files:
        sys.exit(f"error: no expectation files in {args.expectations}")

    failures = 0
    checked = 0
    for ef in expectation_files:
        with open(ef, encoding="utf-8") as fh:
            expect = json.load(fh)
        bench = expect["bench"]
        if args.only and bench not in args.only:
            continue
        doc = stats.get(bench)
        if doc is None:
            print(f"FAIL {bench}: no stats_json output found (looked in {args.stats})")
            failures += 1
            continue
        rows = doc.get("rows", [])
        for check in expect.get("checks", []):
            checked += 1
            ok, _, detail = run_check(check, rows)
            status = "ok  " if ok else "FAIL"
            if not ok:
                failures += 1
            if not ok or args.report:
                print(f"{status} {bench}:{check['name']}: {detail}")

    if checked == 0:
        sys.exit("error: no checks ran (bad --only filter?)")
    print(f"{checked} checks, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
