#!/usr/bin/env python3
"""Validate an interval-sampler time series against its run's global counters.

The sampler's contract (src/trace/sampler.h) is that the per-interval series
is a *partition* of the run: the field-wise sum of every sample's counter
deltas equals the global counter delta over the sampled span exactly, and the
samples tile simulated time contiguously. This script gates that identity
from the outside (the check_samples_watch_* ctests), using only the JSON
artifacts:

  * --samples: the --samples_json file (JSON array of samples);
  * --stats:   the bench's --stats_json report, whose counters section must
               carry the run's global delta under --counters_label
               (pmemsim_watch writes it as "global_delta").

Checks performed:
  1. schema: every sample has index/t_begin/t_end/partial/delta/gauges, its
     gauges hold all four SampleGauges fields, with sequential indices and
     contiguous [t_begin, t_end) spans;
  2. only the final sample may be marked partial;
  3. for every counter field: sum of sample deltas == global delta, exactly;
  4. when the stats carry an "attribution" section (pmemsim_watch
     --breakdown): it recorded accesses, its per-stage totals sum exactly to
     the end-to-end total, every stage has p50/p90/p99, and a run that
     recorded loads and read the media has a media_read stage (a store's
     media read fills the cache off its critical path, so store-only runs
     have none).

Usage:
    check_samples.py --samples /tmp/watch_samples.json \
        --stats /tmp/watch_stats.json [--report]
"""

import argparse
import json
import sys

REQUIRED_SAMPLE_KEYS = ("index", "t_begin", "t_end", "partial", "delta", "gauges")
REQUIRED_GAUGE_KEYS = (
    "wpq_occupancy",
    "read_buffer_entries",
    "write_buffer_entries",
    "serve_queue_depth",
)


def fail(msg):
    sys.exit(f"error: {msg}")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def counter_fields(counters):
    """The integer counter fields of a serialized Counters object.

    Counters::ToJson emits the raw fields flat plus a "derived" sub-object of
    float ratios; only the raw fields participate in the partition identity.
    """
    return {k: v for k, v in counters.items() if k != "derived"}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", required=True, help="--samples_json output (JSON array)")
    parser.add_argument("--stats", required=True, help="--stats_json report with the global delta")
    parser.add_argument(
        "--counters_label",
        default="global_delta",
        help="counters-section label holding the run's global delta (default: global_delta)",
    )
    parser.add_argument("--report", action="store_true", help="print the per-field comparison")
    args = parser.parse_args()

    samples = load_json(args.samples)
    stats = load_json(args.stats)

    if not isinstance(samples, list) or not samples:
        fail(f"{args.samples}: expected a non-empty JSON array of samples")

    counters_section = stats.get("counters", {})
    if args.counters_label not in counters_section:
        fail(f"{args.stats}: no counters[{args.counters_label!r}] section")
    global_delta = counter_fields(counters_section[args.counters_label])
    if not global_delta:
        fail(f"{args.stats}: counters[{args.counters_label!r}] has no counter fields")

    # 1. Schema + contiguity.
    prev_end = None
    for i, s in enumerate(samples):
        for key in REQUIRED_SAMPLE_KEYS:
            if key not in s:
                fail(f"sample {i}: missing key {key!r}")
        for key in REQUIRED_GAUGE_KEYS:
            if key not in s["gauges"]:
                fail(f"sample {i}: gauges missing key {key!r}")
        if s["index"] != i:
            fail(f"sample {i}: non-sequential index {s['index']}")
        if prev_end is not None and s["t_begin"] != prev_end:
            fail(f"sample {i}: t_begin {s['t_begin']} != previous t_end {prev_end} (gap/overlap)")
        if s["t_end"] < s["t_begin"]:
            fail(f"sample {i}: t_end {s['t_end']} < t_begin {s['t_begin']}")
        prev_end = s["t_end"]

    # 2. Partial samples only close the series.
    for i, s in enumerate(samples[:-1]):
        if s["partial"]:
            fail(f"sample {i}: marked partial but is not the final sample")

    # 3. The partition identity, exact per field.
    mismatches = []
    for field, expected in sorted(global_delta.items()):
        total = 0
        for i, s in enumerate(samples):
            if field not in counter_fields(s["delta"]):
                fail(f"sample {i}: delta missing counter field {field!r}")
            total += s["delta"][field]
        status = "ok" if total == expected else "FAIL"
        if args.report or status == "FAIL":
            print(f"{status:4} {field}: sum(samples) = {total}, global = {expected}")
        if status == "FAIL":
            mismatches.append(field)

    if mismatches:
        print(
            f"{len(mismatches)} counter field(s) violate the partition identity",
            file=sys.stderr,
        )
        return 1

    # 4. The latency attribution is present and conserved.
    attr = stats.get("attribution")
    if attr is not None:
        if attr["accesses"] <= 0:
            fail(f"{args.stats}: attribution recorded no accesses")
        if attr["stage_total_sum"] != attr["end_to_end_total"]:
            fail(
                f"{args.stats}: attribution stage_total_sum {attr['stage_total_sum']} != "
                f"end_to_end_total {attr['end_to_end_total']}"
            )
        stages = attr["stages"]
        reads_media = global_delta.get("media_read_bytes", 0) > 0
        if "load" in attr["ops"] and reads_media and "media_read" not in stages:
            fail(f"{args.stats}: loads read the media, no media_read stage: {sorted(stages)}")
        for name, stage in stages.items():
            for pct in ("p50", "p90", "p99"):
                if stage["hist"][pct] is None:
                    fail(f"{args.stats}: attribution stage {name!r} has no {pct}")
    print(
        f"{len(samples)} samples over [{samples[0]['t_begin']}, {samples[-1]['t_end']}) cycles: "
        f"all {len(global_delta)} counter fields sum exactly to the global delta"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
