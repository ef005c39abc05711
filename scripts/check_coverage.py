#!/usr/bin/env python3
"""Gate src/ function coverage on a gcc --coverage build.

Runs `gcov --json-format` over every .gcda file under --build (or reads
gcov JSON documents given with --gcov-json), keeps the functions defined in
src/, and merges each one across the objects that instantiate it (a header
inline function lands in every translation unit that uses it) by taking the
largest execution count. The instances of a template merge the same way;
the lambdas of a function are gated together as one "<function>::{lambda}"
entry, unreached while any of them is, so names stay stable when lambdas
are renumbered.

Exits 1, naming each one, when
  * a src/ function has a merged count of zero and is not listed in the
    allowlist, or
  * an allowlist entry is stale: its function was reached, or is gone.
So the allowlist can only shrink. The src/ line percentage is printed and
not gated.

Allowlist lines read `<file>: <function>  # reason`, file relative to the
source root, function as this script prints it; `#` starts a comment.

  cmake -B build-cov -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
  cmake --build build-cov -j && ctest --test-dir build-cov -j
  python3 scripts/check_coverage.py --build build-cov

Use an -O0 (Debug) build: at -O1 and above gcc inlines small functions into
their callers and gcov reports the out-of-line copy as never called.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ALLOWLIST = os.path.join(ROOT, "scripts", "coverage_allowlist.txt")
GCOV_BATCH = 64  # .gcda files per gcov run


def gcov_documents(build):
    """Yields one gcov JSON document per .gcda file under `build`."""
    gcda = []
    for dirpath, _, names in os.walk(build):
        gcda.extend(os.path.join(dirpath, n) for n in sorted(names) if n.endswith(".gcda"))
    if not gcda:
        sys.exit(f"error: no .gcda files under {build} (build with --coverage, then run ctest)")
    for i in range(0, len(gcda), GCOV_BATCH):
        out = subprocess.run(["gcov", "--json-format", "--stdout"] + gcda[i:i + GCOV_BATCH],
                             check=True, capture_output=True, text=True, cwd=build).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def read_documents(path):
    """Yields the gcov JSON documents in `path`, one per line."""
    with open(path) as f:
        for line in f:
            if line.strip():
                yield json.loads(line)


def strip_templates(name, mark=""):
    """Replaces every <...> argument list by `mark`, keeping operator<,
    operator<< and the like."""
    out = []
    depth = 0
    i = 0
    while i < len(name):
        m = re.match(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->|<|>)", name[i:])
        if m and depth == 0:
            out.append(m.group(0))
            i += len(m.group(0))
            continue
        c = name[i]
        if c == "<":
            if depth == 0:
                out.append(mark)
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out)


def matching_paren(text, open_at):
    """Index of the ")" closing the "(" at `open_at`."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def gated_names(demangled):
    """Returns (site, entry) for one gcov function record.

    The entry is the name a function is gated and allowlisted under: the
    function with template arguments and any return type dropped and its
    parameters kept, so overloads stay apart. A function template's
    instances share one entry, `name(...)`, and a function's lambdas share
    `<function>::{lambda}`. The site tells those lambdas apart; their
    numbers (#N) may change when the function is edited, the entry's not."""
    name = demangled.replace("(anonymous namespace)", "{anonymous}")
    # A lambda of this function, not one named in its template arguments or
    # parameters: the first "::{lambda(" outside every <> and ().
    depth = 0
    cut = len(name)
    for i, c in enumerate(name):
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth -= 1
        elif depth == 0 and name.startswith("::{lambda(", i):
            cut = i
            break
    name, lambda_part = strip_templates(name[:cut], mark="\0"), name[cut:]
    # The parameter list opens at the first "(" that is not operator()'s.
    start = name.find("operator()")
    paren = name.find("(", start + len("operator()") if start >= 0 else 0)
    if paren >= 0:
        head, params = name[:paren], name[paren:]
        if head.endswith("\0"):  # a function template instance
            params = "(...)" + params[matching_paren(params, 0) + 1:]
        op = re.search(r"\S*operator\s", head)
        if op:
            head = head[op.start():]  # a conversion operator: "operator bool"
        elif head.split():
            head = head.split()[-1]  # drop a template instance's return type
        name = head + params
    name = name.replace("\0", "")
    if not lambda_part:
        return name, name
    return name + strip_templates(lambda_part), name + "::{lambda}"


def collect(documents, root):
    """Returns ({(file, entry): count}, {(file, line): count}) for the src/
    files under `root`. A site's count is its largest over the objects that
    hold it; an entry's is its smallest site's, so one unreached lambda
    leaves its function's lambda entry unreached."""
    sites = {}
    lines = {}
    for doc in documents:
        cwd = doc.get("current_working_directory", root)
        for entry in doc.get("files", []):
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            rel = os.path.relpath(path, root)
            if not rel.startswith("src" + os.sep):
                continue
            rel = rel.replace(os.sep, "/")
            for fn in entry.get("functions", []):
                site, name = gated_names(fn.get("demangled_name", fn["name"]))
                key = (rel, name, site)
                sites[key] = max(sites.get(key, 0), fn["execution_count"])
            for ln in entry.get("lines", []):
                key = (rel, ln["line_number"])
                lines[key] = max(lines.get(key, 0), ln["count"])
    functions = {}
    for (rel, name, _), count in sites.items():
        key = (rel, name)
        functions[key] = min(functions.get(key, count), count)
    return functions, lines


def read_allowlist(path):
    """Returns {(file, function): line number} of the allowlist's entries."""
    entries = {}
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            file, sep, function = text.partition(": ")
            if not sep:
                sys.exit(f"error: {path}:{number}: want '<file>: <function>  # reason'")
            entries[(file.strip(), function.strip())] = number
    return entries


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--build", help="build tree of a --coverage build, after ctest")
    source.add_argument("--gcov-json", nargs="+", metavar="FILE",
                        help="gcov JSON documents to read instead of running gcov")
    parser.add_argument("--allowlist", default=DEFAULT_ALLOWLIST,
                        help="unreached functions that may stay unreached "
                        "(default: scripts/coverage_allowlist.txt)")
    parser.add_argument("--root", default=ROOT,
                        help="source root that src/ paths are relative to (default: the repo)")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if args.build:
        documents = gcov_documents(os.path.abspath(args.build))
    else:
        documents = (doc for path in args.gcov_json for doc in read_documents(path))
    functions, lines = collect(documents, root)
    if not functions:
        sys.exit(f"error: no src/ functions found under root {root}")
    allowed = read_allowlist(args.allowlist)

    failures = 0
    unreached = sorted(key for key, count in functions.items() if count == 0)
    for file, function in unreached:
        if (file, function) not in allowed:
            print(f"unreached: {file}: {function}")
            failures += 1
    for (file, function), number in sorted(allowed.items(), key=lambda kv: kv[1]):
        count = functions.get((file, function))
        if count is None or count > 0:
            why = "gone" if count is None else f"reached {count} times"
            print(f"stale allowlist entry ({why}): {args.allowlist}:{number}: {file}: {function}")
            failures += 1

    hit = sum(1 for count in lines.values() if count > 0)
    print(f"src/ functions: {len(functions)}, unreached: {len(unreached)}, "
          f"allowlisted: {len(allowed)}")
    print(f"src/ lines: {hit} of {len(lines)} reached ({100.0 * hit / max(len(lines), 1):.1f}%)")
    if failures:
        print(f"{failures} coverage failure(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
