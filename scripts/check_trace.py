#!/usr/bin/env python3
"""Validate a .pmtrace file with an independent decoder.

Re-implements the .pmtrace v1 format (DESIGN.md §8, src/trace/recorder.cc)
in Python so a bug in the C++ serializer cannot vouch for itself. Checks:

  * header schema: magic, format version, generation/eADR bounds, string
    sizes, segment count;
  * record streams decode exactly: every segment's payload is consumed
    byte-for-byte with no trailing bytes, ops are in range, thread ids are
    within the declared thread table;
  * per-thread clocks are monotone non-decreasing (structural in the delta
    encoding — an unsigned varint cannot decrease — but the decoder verifies
    the decoded values anyway so an encoder bug cannot hide behind it);
  * footer total reconciles with the sum of per-segment record counts;
  * with --stats: each segment's record count matches the "records" cell of
    the stats row emitted by the run (pmemsim_trace record/replay), keying
    rows to segments by order.

Usage:
    check_trace.py TRACE.pmtrace [--stats STATS.json] [--report]

Exits 0 when the file validates, 1 on any validation failure, 2 on usage
errors or unreadable files.
"""

import argparse
import json
import struct
import sys

MAGIC = b"pmtrace\x00"
END_MAGIC = b"EOTR"
FORMAT_VERSION = 1
OP_COUNT = 18
OP_NAMES = [
    "load64", "load_line", "load_noprefetch", "store64", "store_line",
    "read", "write", "ntstore64", "ntstore_line", "ntwrite", "clwb",
    "clflushopt", "sfence", "mfence", "stream_copy", "load_multi",
    "compute", "marker",
]
OP_LOAD_MULTI = 15
# Ops with no leading address field (addresses of load_multi live in its list).
NO_ADDR_OPS = {12, 13, 15, 16, 17}  # sfence, mfence, load_multi, compute, marker
AUX_OPS = {5, 6, 9, 14, 15, 16, 17}  # read, write, ntwrite, stream_copy, load_multi, compute, marker

MAX_STRING = 4096
MAX_META = 1024
MAX_THREADS = 65536
MAX_SEGMENTS = 1 << 20


class TraceError(Exception):
    pass


class Cursor:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def need(self, n):
        if len(self.data) - self.pos < n:
            raise TraceError(f"truncated at byte {self.pos} (need {n} more bytes)")

    def bytes(self, n):
        self.need(n)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.bytes(1)[0]

    def u16(self):
        return struct.unpack("<H", self.bytes(2))[0]

    def u32(self):
        return struct.unpack("<I", self.bytes(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.bytes(8))[0]

    def varint(self):
        v = 0
        for shift in range(0, 64, 7):
            b = self.u8()
            v |= (b & 0x7F) << shift
            if not b & 0x80:
                if shift == 63 and b > 1:
                    raise TraceError(f"non-canonical varint at byte {self.pos}")
                return v
        raise TraceError(f"unterminated varint at byte {self.pos}")

    def string16(self):
        n = self.u16()
        if n > MAX_STRING:
            raise TraceError(f"string length {n} over limit at byte {self.pos}")
        return self.bytes(n).decode("utf-8")


def unzigzag(v):
    return (v >> 1) ^ -(v & 1)


def parse(data):
    c = Cursor(data)
    if c.bytes(8) != MAGIC:
        raise TraceError("bad magic (not a .pmtrace file)")
    version = c.u32()
    if version != FORMAT_VERSION:
        raise TraceError(f"unsupported format version {version} (expected {FORMAT_VERSION})")
    header = {
        "version": version,
        "fingerprint": c.u64(),
        "platform": c.string16(),
    }
    gen = c.u8()
    if gen > 1:
        raise TraceError(f"bad generation {gen}")
    eadr = c.u8()
    if eadr > 1:
        raise TraceError(f"bad eadr flag {eadr}")
    header["generation"] = "G1" if gen == 0 else "G2"
    header["eadr"] = bool(eadr)
    header["dimm_count"] = c.u32()
    header["scenario"] = c.string16()

    segment_count = c.u32()
    if segment_count > MAX_SEGMENTS:
        raise TraceError(f"segment count {segment_count} over limit")

    segments = []
    for s in range(segment_count):
        label = c.string16()
        meta_count = c.u16()
        if meta_count > MAX_META:
            raise TraceError(f"segment '{label}': metadata count {meta_count} over limit")
        meta = {}
        for _ in range(meta_count):
            k = c.string16()
            v = c.string16()
            meta[k] = v
        thread_count = c.u32()
        if thread_count == 0 or thread_count > MAX_THREADS:
            raise TraceError(f"segment '{label}': bad thread count {thread_count}")
        thread_nodes = [c.u8() for _ in range(thread_count)]
        record_count = c.u64()
        payload_bytes = c.u64()
        c.need(payload_bytes)
        payload_end = c.pos + payload_bytes
        if record_count > payload_bytes:
            raise TraceError(f"segment '{label}': record count exceeds payload capacity")

        last_addr = [0] * thread_count
        last_clock = [0] * thread_count
        op_histogram = [0] * OP_COUNT
        for r in range(record_count):
            op = c.u8()
            if op >= OP_COUNT:
                raise TraceError(f"segment '{label}' record {r}: bad op code {op}")
            tid = c.varint()
            if tid >= thread_count:
                raise TraceError(f"segment '{label}' record {r}: thread {tid} out of range")
            if op not in NO_ADDR_OPS:
                last_addr[tid] = (last_addr[tid] + unzigzag(c.varint())) & (2**64 - 1)
            if op == OP_LOAD_MULTI:
                count = c.varint()
                for _ in range(count):
                    last_addr[tid] = (last_addr[tid] + unzigzag(c.varint())) & (2**64 - 1)
            elif op in AUX_OPS:
                c.varint()
            clock = last_clock[tid] + c.varint()
            if clock < last_clock[tid]:
                raise TraceError(
                    f"segment '{label}' record {r}: thread {tid} clock went backward"
                )
            last_clock[tid] = clock
            op_histogram[op] += 1
            if c.pos > payload_end:
                raise TraceError(f"segment '{label}' record {r}: overruns segment payload")
        if c.pos != payload_end:
            raise TraceError(
                f"segment '{label}': {payload_end - c.pos} trailing payload byte(s)"
            )
        segments.append({
            "label": label,
            "meta": meta,
            "threads": thread_count,
            "nodes": thread_nodes,
            "records": record_count,
            "op_histogram": op_histogram,
        })

    total = c.u64()
    if c.bytes(4) != END_MAGIC:
        raise TraceError("missing end-of-trace footer")
    declared = sum(seg["records"] for seg in segments)
    if total != declared:
        raise TraceError(f"footer total {total} != sum of segment counts {declared}")
    if c.pos != len(data):
        raise TraceError(f"{len(data) - c.pos} trailing byte(s) after footer")
    return header, segments


def unreadable(msg):
    """Exits 2: a file that cannot be read is not a failed validation (exit 1)."""
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def cross_check_stats(segments, stats_path):
    """Reconcile segment record counts against the run's stats rows."""
    try:
        with open(stats_path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        unreadable(f"cannot read stats {stats_path}: {e}")
    rows = doc.get("rows", [])
    if len(rows) != len(segments):
        raise TraceError(f"stats has {len(rows)} row(s) but trace has {len(segments)} segment(s)")
    for i, (row, seg) in enumerate(zip(rows, segments)):
        if "records" not in row:
            raise TraceError(f"stats row {i} has no 'records' cell")
        if row["records"] != seg["records"]:
            raise TraceError(
                f"segment '{seg['label']}': trace has {seg['records']} records but "
                f"stats row {i} claims {row['records']}"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help=".pmtrace file to validate")
    parser.add_argument("--stats", help="stats JSON from the recording/replaying run")
    parser.add_argument("--report", action="store_true", help="print header and per-segment detail")
    args = parser.parse_args()

    try:
        with open(args.trace, "rb") as f:
            data = f.read()
    except OSError as e:
        unreadable(f"cannot read {args.trace}: {e}")

    try:
        header, segments = parse(data)
        if args.stats:
            cross_check_stats(segments, args.stats)
    except TraceError as e:
        print(f"FAIL {args.trace}: {e}", file=sys.stderr)
        return 1

    if args.report:
        print(f"platform {header['platform']} ({header['generation']}"
              f"{', eADR' if header['eadr'] else ''}), {header['dimm_count']} dimm(s), "
              f"fingerprint {header['fingerprint']:016x}")
        print(f"scenario {header['scenario']}: {len(segments)} segment(s)")
        for seg in segments:
            print(f"  {seg['label']}: {seg['threads']} thread(s), {seg['records']} records")
            for op, n in enumerate(seg["op_histogram"]):
                if n:
                    print(f"    {OP_NAMES[op]:<16} {n}")
    total = sum(seg["records"] for seg in segments)
    checked = f", reconciled against {args.stats}" if args.stats else ""
    print(f"ok: {args.trace}: {len(segments)} segment(s), {total} records validate{checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
