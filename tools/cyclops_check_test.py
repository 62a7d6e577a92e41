#!/usr/bin/env python3
"""Break one identity in each kind of artifact and require
cyclops_check.py to reject the broken copy, naming the identity.

  cyclops_check_test.py BUILD_DIR SOURCE_DIR

The valid artifacts are the ones the smoke and golden cases wrote
under BUILD_DIR (the ctest fixture "artifacts"). Each is first checked
as written, which must pass, so the rejection is the break's doing. The
broken copies are left in the working directory.
"""

import json
import os
import subprocess
import sys

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "cyclops_check.py")


def check(*args):
    return subprocess.run([sys.executable, CHECKER, *args],
                          capture_output=True, text=True)


def read(path):
    with open(path) as f:
        return f.read()


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def edit(path, mutate):
    """Apply @p mutate to the JSON document or the lines in @p path."""
    if path.endswith(".json"):
        doc = json.loads(read(path))
        mutate(doc)
        write(path, json.dumps(doc, indent=1))
    else:
        lines = read(path).splitlines()
        mutate(lines)
        write(path, "\n".join(lines) + "\n")


def move_chip3_events(doc):
    # Chip 3's events move to pid 14, which no process_name declares.
    for ev in doc["traceEvents"]:
        if ev["pid"] == 13 and ev["ph"] != "M":
            ev["pid"] = 14


def unbalance_histogram(doc):
    h = next(h for h in doc["histograms"].values() if h["n"])
    h["buckets"][next(i for i, b in enumerate(h["buckets"]) if b)] += 1


def swap_samples(lines):
    lines[1], lines[2] = lines[2], lines[1]


def bump_injected(doc):
    doc["counters"]["fabric.flitsInjected"] += 1


def bump_pair_row(lines):
    i = next(i for i, l in enumerate(lines) if l.startswith("pair,"))
    cells = lines[i].split(",")
    cells[4] = str(int(cells[4]) + 1)  # messages
    lines[i] = ",".join(cells)


def bump_folded(lines):
    stack, count = lines[0].rsplit(" ", 1)
    lines[0] = f"{stack} {int(count) + 1}"


def shift_count(doc):
    counts = doc["counts"]
    src = next(k for k, v in counts.items() if v)
    dst = next(k for k in counts if k != src)
    counts[src] -= 1
    counts[dst] += 1


def push_cell_out_of_band(lines):
    # Line 2 column 2 of fig4 is a bandwidth: 20% + 3 is outside
    # max(2, 5%) of any value.
    cells = lines[1].split(",")
    cells[1] = f"{float(cells[1]) * 1.2 + 3:.1f}"
    lines[1] = ",".join(cells)


def drop_schema(doc):
    doc["schema"] = "cyclops-manifest-v0"


def main():
    build, source = sys.argv[1:3]
    tools = os.path.join(build, "tools")
    obs = os.path.join(tools, "cyclops_run_observability_smoke")
    fabric = os.path.join(tools, "cyclops_run_fabric_obs_smoke", "1")
    prof = os.path.join(tools, "cyclops_run_profiler_smoke", "1",
                        "prof.json")
    golden = os.path.join(source, "bench", "goldens", "fig4.csv")
    os.makedirs("prof", exist_ok=True)
    for suffix in ("", ".heatmap.csv"):
        write("prof/prof.json" + suffix, read(prof + suffix))

    # (checker arguments, a valid artifact, its copy that gets broken,
    #  how it breaks, the message naming the identity)
    cases = [
        ("trace --expect-chips 4 trace.json",
         os.path.join(fabric, "trace.json"), "trace.json",
         move_chip3_events,
         "chip process pid 13 (cyclops-chip3) has no events"),
        ("stats stats.json", os.path.join(obs, "1", "stats.json"),
         "stats.json", unbalance_histogram, "buckets do not sum to n"),
        ("series series.csv", os.path.join(obs, "1", "series.csv"),
         "series.csv", swap_samples,
         "sample cycles not strictly increasing at line 3"),
        ("fabric fabric.json", os.path.join(fabric, "fabric.json"),
         "fabric.json", bump_injected, "flit conservation violated"),
        (f"fabric {fabric}/fabric.json --heatmap heatmap.csv",
         os.path.join(fabric, "heatmap.csv"), "heatmap.csv",
         bump_pair_row,
         "pair rows disagree with the JSON chip-pair matrix"),
        ("prof prof/prof.json", prof + ".folded", "prof/prof.json.folded",
         bump_folded, "folded weights sum to"),
        ("faultcamp camp.json",
         os.path.join(tools, "cyclops_faultcamp_smoke", "1", "camp.json"),
         "camp.json", shift_count, "disagree with injection list"),
        (f"golden {golden} fig4.csv",
         os.path.join(build, "bench", "verify_goldens_fig4", "1",
                      "stdout"),
         "fig4.csv", push_cell_out_of_band, "line 2 col 2:"),
        ("manifest manifest.json", os.path.join(obs, "2", "manifest.json"),
         "manifest.json", drop_schema, "is not cyclops-manifest-v1"),
    ]
    failures = 0
    for args, valid, broken, mutate, identity in cases:
        write(broken, read(valid))
        ok = check(*args.split())
        edit(broken, mutate)
        bad = check(*args.split())
        if ok.returncode != 0:
            print(f"FAIL {args}: the valid {valid} is refused:\n"
                  f"{ok.stderr}")
            failures += 1
        elif bad.returncode == 0 or identity not in bad.stderr:
            print(f"FAIL {args}: exit {bad.returncode}, want nonzero "
                  f"naming '{identity}':\n{bad.stderr}")
            failures += 1
        else:
            print(f"ok   {args}: {bad.stderr.strip()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
