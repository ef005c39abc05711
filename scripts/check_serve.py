#!/usr/bin/env python3
"""Validate a pmemsim_serve --stats_json report's accounting identities.

The serving tier's contract (src/serve/) is enforceable from the JSON alone:

  1. admission conservation: offered == completed + rejected, globally and
     per shard — every offered request is either shed at admission or served
     to completion (nothing is lost or double-counted);
  2. aggregation: the per-shard offered/rejected/completed counts sum to the
     global counts, and no shard's last_completion exceeds the global one;
  3. latency accounting: sojourn histogram count == completed, the
     exact-rank tails are monotone (p50 <= p99 <= p999), and the histogram
     ladder under latency.sojourn reports the same p50/p99/p999 as the flat
     sojourn_pXX fields (one quantile definition);
  4. attribution: every shard carries a memory-side attribution section with
     a positive access count (the serve phase was actually attributed);
  5. rows: every (mix, loop) point emits a "global" row plus one row per
     shard, with matching completed counts.

Usage:
    check_serve.py --stats /tmp/serve.json [--expect-shed] [--report]

--expect-shed additionally requires at least one point to have shed requests
(used by the check_serve_open_a_shed ctest, which would silently stop exercising admission
control if a config change made its queue deep enough to never fill).
"""

import argparse
import json
import sys


def fail(msg):
    sys.exit(f"error: {msg}")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def check_stats_block(stats, where):
    for key in ("offered", "rejected", "completed", "ops_per_sec", "latency"):
        if key not in stats:
            fail(f"{where}: missing key '{key}'")
    if stats["offered"] != stats["completed"] + stats["rejected"]:
        fail(
            f"{where}: offered ({stats['offered']}) != completed "
            f"({stats['completed']}) + rejected ({stats['rejected']})"
        )
    sojourn = stats["latency"]["sojourn"]
    if sojourn.get("count") != stats["completed"]:
        fail(
            f"{where}: sojourn histogram count {sojourn.get('count')} != "
            f"completed {stats['completed']}"
        )
    if stats["completed"] > 0:
        p50, p99, p999 = (
            stats["sojourn_p50"],
            stats["sojourn_p99"],
            stats["sojourn_p999"],
        )
        if not p50 <= p99 <= p999:
            fail(f"{where}: tails not monotone: p50={p50} p99={p99} p999={p999}")
    for p in ("p50", "p99", "p999"):
        if sojourn.get(p) != stats[f"sojourn_{p}"]:
            fail(
                f"{where}: latency.sojourn.{p} ({sojourn.get(p)}) != "
                f"sojourn_{p} ({stats[f'sojourn_{p}']})"
            )
    return stats["offered"], stats["rejected"], stats["completed"]


def check_point(point, index):
    where = f"serve[{index}]"
    for key in ("config", "global", "shards", "serve_start"):
        if key not in point:
            fail(f"{where}: missing key '{key}'")
    cfg = point["config"]
    where = f"serve[{index}] ({cfg.get('mix')}/{cfg.get('loop')})"
    g_off, g_rej, g_done = check_stats_block(point["global"], f"{where} global")

    shards = point["shards"]
    if len(shards) != cfg["shards"]:
        fail(f"{where}: {len(shards)} shard entries, config says {cfg['shards']}")
    s_off = s_rej = s_done = 0
    last = 0
    for shard in shards:
        swhere = f"{where} shard{shard.get('shard')}"
        off, rej, done = check_stats_block(shard["stats"], swhere)
        s_off += off
        s_rej += rej
        s_done += done
        last = max(last, shard["stats"]["last_completion"])
        attribution = shard.get("attribution")
        if not attribution or attribution.get("accesses", 0) <= 0:
            fail(f"{swhere}: missing or empty attribution section")
        occupancy = shard["queue"]["max_occupancy"]
        if occupancy > shard["queue"]["depth"]:
            fail(f"{swhere}: occupancy {occupancy} exceeds depth bound")
    if (s_off, s_rej, s_done) != (g_off, g_rej, g_done):
        fail(
            f"{where}: shard sums (offered={s_off}, rejected={s_rej}, "
            f"completed={s_done}) != global ({g_off}, {g_rej}, {g_done})"
        )
    if last != point["global"]["last_completion"]:
        fail(
            f"{where}: max shard last_completion {last} != global "
            f"{point['global']['last_completion']}"
        )
    return g_rej


def check_rows(report, serve):
    rows = report.get("rows")
    if not rows:
        fail("report has no rows")
    by_point = {}
    for row in rows:
        for key in ("mix", "loop", "scope", "ops_per_sec", "sojourn_p99", "completed"):
            if key not in row:
                fail(f"row missing key '{key}': {row}")
        by_point.setdefault((row["mix"], row["loop"]), {})[row["scope"]] = row
    if len(by_point) != len(serve):
        fail(f"{len(by_point)} row points vs {len(serve)} serve sections")
    for point in serve:
        cfg = point["config"]
        scopes = by_point.get((cfg["mix"], cfg["loop"]))
        if scopes is None:
            fail(f"no rows for point {cfg['mix']}/{cfg['loop']}")
        if "global" not in scopes:
            fail(f"{cfg['mix']}/{cfg['loop']}: no global row")
        if len(scopes) != 1 + cfg["shards"]:
            fail(
                f"{cfg['mix']}/{cfg['loop']}: {len(scopes)} row scopes, "
                f"expected global + {cfg['shards']} shards"
            )
        if scopes["global"]["completed"] != point["global"]["completed"]:
            fail(f"{cfg['mix']}/{cfg['loop']}: row/section completed mismatch")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stats", required=True, help="pmemsim_serve --stats_json file")
    parser.add_argument(
        "--expect-shed",
        action="store_true",
        help="require at least one point to have rejected requests",
    )
    parser.add_argument("--report", action="store_true", help="print a summary on success")
    args = parser.parse_args()

    report = load_json(args.stats)
    if report.get("bench") != "pmemsim_serve":
        fail(f"not a pmemsim_serve report: bench={report.get('bench')}")
    serve = report.get("serve")
    if not isinstance(serve, list) or not serve:
        fail("missing or empty 'serve' section")
    if any(point is None for point in serve):
        fail("a sweep point failed (null serve entry)")

    total_rejected = 0
    for i, point in enumerate(serve):
        total_rejected += check_point(point, i)
    check_rows(report, serve)

    if args.expect_shed and total_rejected == 0:
        fail("--expect-shed: no point shed any request (queue never filled)")

    if args.report:
        print(f"ok: {len(serve)} point(s) validated, {total_rejected} total shed")


if __name__ == "__main__":
    main()
