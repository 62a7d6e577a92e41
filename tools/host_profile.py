#!/usr/bin/env python3
"""Reduce host-time samples (tools/host_sampler.cc) to per-function and
per-source-line shares.

    python3 tools/host_profile.py EXECUTABLE host-samples.*.txt [--top N]

Each sample line is "<object> <offset>"; offsets in the executable
("-") are resolved with `addr2line -a -f -C -i`, and a sample is charged
to the innermost inline frame at its address, so code inlined into a
caller counts for the inlined function and its own file:line. Samples
in shared libraries are grouped by library. SIGPROF samples skid: a
stall on a load is charged to the instruction after it.
"""

import argparse
import collections
import os
import subprocess
import sys


def resolve(executable, offsets):
    """Map each hex offset to its innermost (function, file:line)."""
    if not offsets:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", executable] + offsets,
        check=True, capture_output=True, text=True).stdout.splitlines()
    frames = {}
    i = 0
    for offset in offsets:
        # "0x<addr>" then one (function, file:line) pair per inline
        # frame, innermost first.
        if not out[i].startswith("0x"):
            sys.exit(f"unexpected addr2line output: {out[i]!r}")
        i += 1
        func, where = out[i], out[i + 1]
        i += 2
        while i < len(out) and not out[i].startswith("0x"):
            i += 2
        where = where.split(" (discriminator")[0]
        # Paths under the working directory (the source tree) shortened.
        rel = os.path.relpath(where) if where.startswith("/") else where
        frames[offset] = (func, where if rel.startswith("..") else rel)
    return frames


def table(title, counter, total, top):
    print(f"{title} ({total} samples)")
    for key, n in counter.most_common(top):
        print(f"  {100.0 * n / total:6.2f}%  {n:8d}  {key}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("executable")
    ap.add_argument("samples", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    counts = collections.Counter()
    for path in args.samples:
        with open(path) as f:
            for line in f:
                obj, offset = line.split()
                counts[(obj, offset)] += 1
    total = sum(counts.values())
    if total == 0:
        print("no samples")
        return 0

    frames = resolve(args.executable,
                     sorted({off for obj, off in counts if obj == "-"}))
    by_func = collections.Counter()
    by_line = collections.Counter()
    for (obj, offset), n in counts.items():
        if obj == "-":
            func, where = frames[offset]
        else:
            func = where = f"[{os.path.basename(obj)}]"
        by_func[func] += n
        by_line[where] += n
    table("by function", by_func, total, args.top)
    print()
    table("by file:line", by_line, total, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
