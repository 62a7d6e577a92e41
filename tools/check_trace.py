#!/usr/bin/env python3
"""Validate the simulator's observability outputs.

Used by the ctest smoke tests (and handy interactively):

  check_trace.py --trace trace.json   validate Chrome-trace JSON
  check_trace.py --stats stats.json   validate the stats JSON
  check_trace.py --csv series.csv     validate the epoch-series CSV

--expect-chips N requires every --trace file to be a merged
multi-chip trace (cyclops-run --chips / arch::System): exactly N chip
processes named "cyclops-chip0".."cyclops-chip<N-1>" on pids 10..10+N-1,
each carrying at least one event. Chip-process naming and per-pid
timestamp order are validated whenever chip processes appear, with or
without the flag.

--expect-links N requires every --trace file to carry the fabric
process (pid 3, "cyclops-fabric", emitted with the "net" trace
category on multi-chip runs) with exactly N per-link tracks (thread
names "link.<a>-><b>") and at least one event.

Any number of the options may be combined; the script exits non-zero
with a message on the first malformed file.
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"check_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str, expect_chips: int = 0,
                expect_links: int = 0) -> None:
    """Chrome trace-event JSON as Perfetto/about:tracing load it."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")
    # A trace with no events at all (empty ring export, or metadata
    # only) is valid Chrome-trace JSON and must be accepted: Perfetto
    # loads it, and the tracer emits it when nothing was recorded.
    if not events:
        if expect_chips:
            fail(f"{path}: empty trace but {expect_chips} chip "
                 f"processes expected")
        if expect_links:
            fail(f"{path}: empty trace but {expect_links} fabric link "
                 f"tracks expected")
        print(f"{path}: ok (empty trace)")
        return
    n_spans = 0
    n_flows = 0
    fabric_process_named = False
    chip_procs = {}  # pid -> process_name for the 10+i chip tracks
    link_tracks = set()  # fabric (pid 3) thread names "link.<a>-><b>"
    flow_ids = {}  # flow id -> count of 's'/'f' endpoints
    for i, ev in enumerate(events):
        for key in ("ph", "pid"):
            if key not in ev:
                fail(f"{path}: event {i} missing '{key}'")
        # pid 1 is the standalone chip, 3 the fabric, 10+ the chips of
        # a multi-chip run; no exporter writes pid 2.
        if ev["pid"] == 2:
            fail(f"{path}: event {i} on the unused pid 2")
        ph = ev["ph"]
        if ph == "M":
            if "name" not in ev or "args" not in ev:
                fail(f"{path}: metadata event {i} malformed")
            if (ev["name"] == "process_name" and ev["pid"] == 3 and
                    ev["args"].get("name") == "cyclops-fabric"):
                fabric_process_named = True
            if (ev["name"] == "thread_name" and ev["pid"] == 3 and
                    str(ev["args"].get("name", "")).startswith("link.")):
                link_tracks.add(ev["args"]["name"])
            if (ev["name"] == "process_name" and ev["pid"] >= 10 and
                    str(ev["args"].get("name", ""))
                    .startswith("cyclops-chip")):
                chip_procs[ev["pid"]] = ev["args"]["name"]
            continue
        for key in ("name", "tid", "ts", "cat"):
            if key not in ev:
                fail(f"{path}: event {i} missing '{key}'")
        if ev["cat"] == "net":
            # Fabric events ride the dedicated pid-3 fabric process.
            if ev["pid"] != 3:
                fail(f"{path}: net event {i} not on pid 3")
        elif ev["pid"] == 3:
            fail(f"{path}: non-net event {i} on the fabric pid")
        if ph == "X":
            if "dur" not in ev or ev["dur"] < 0:
                fail(f"{path}: complete event {i} has bad duration")
            n_spans += 1
        elif ph == "C":
            if "args" not in ev:
                fail(f"{path}: counter event {i} missing args")
        elif ph == "i":
            if ev.get("s") not in ("t", "p", "g"):
                fail(f"{path}: instant event {i} missing scope")
        elif ph in ("s", "f"):
            # Flow events pair an injection ('s') with a delivery ('f')
            # through a shared id; 'f' must carry the enclosing-slice
            # binding point.
            if "id" not in ev:
                fail(f"{path}: flow event {i} missing 'id'")
            if ph == "f" and ev.get("bp") != "e":
                fail(f"{path}: flow-end event {i} missing bp=e")
            flow_ids[ev["id"]] = flow_ids.get(ev["id"], 0) + 1
            n_flows += 1
        else:
            fail(f"{path}: event {i} has unknown phase '{ph}'")
    # Chronological order is checked per process: the exporter sorts
    # each process's events on its own, so only within a pid is the
    # order guaranteed. Verify so regressions surface.
    by_pid = {}
    for ev in events:
        if ev["ph"] != "M":
            by_pid.setdefault(ev["pid"], []).append(ev["ts"])
    for pid, ts in by_pid.items():
        if ts != sorted(ts):
            fail(f"{path}: pid {pid} events not sorted by timestamp")
    # Multi-chip traces (arch::System) put each chip on its own
    # process: pid 10+i named "cyclops-chipI". The naming must match
    # the pid so Perfetto tracks line up with chip ids.
    events_per_pid = {}
    for ev in events:
        if ev["ph"] != "M":
            events_per_pid[ev["pid"]] = \
                events_per_pid.get(ev["pid"], 0) + 1
    for pid, name in sorted(chip_procs.items()):
        if name != f"cyclops-chip{pid - 10}":
            fail(f"{path}: chip process on pid {pid} named '{name}', "
                 f"want 'cyclops-chip{pid - 10}'")
    if expect_chips:
        want = {10 + i for i in range(expect_chips)}
        if set(chip_procs) != want:
            fail(f"{path}: chip processes on pids "
                 f"{sorted(chip_procs)} do not match --expect-chips "
                 f"{expect_chips} (want pids {sorted(want)})")
        for pid in sorted(want):
            if not events_per_pid.get(pid):
                fail(f"{path}: chip process pid {pid} "
                     f"(cyclops-chip{pid - 10}) has no events")
    # A flow id pairs one injection ('s') with one delivery ('f').
    # Ring-buffer drops can orphan an endpoint, but an id can never
    # appear more than twice.
    for fid, n in flow_ids.items():
        if n > 2:
            fail(f"{path}: flow id {fid} has {n} endpoints (max 2)")
    if link_tracks and not fabric_process_named:
        fail(f"{path}: fabric link tracks present but no "
             f"cyclops-fabric process_name metadata")
    if expect_links:
        if not fabric_process_named:
            fail(f"{path}: no cyclops-fabric process (pid 3); was the "
                 f"'net' trace category enabled on a --chips run?")
        if len(link_tracks) != expect_links:
            fail(f"{path}: {len(link_tracks)} fabric link tracks, "
                 f"want --expect-links {expect_links}")
        if not events_per_pid.get(3):
            fail(f"{path}: fabric process (pid 3) has no events")
    extra = ""
    if chip_procs:
        extra += f", {len(chip_procs)} chips"
    if link_tracks:
        extra += f", {len(link_tracks)} links, {n_flows} flow events"
    print(f"{path}: ok ({len(events)} events, {n_spans} spans{extra})")


def check_stats(path: str) -> None:
    with open(path) as f:
        doc = json.load(f)
    for key in ("cycles", "counters", "histograms"):
        if key not in doc:
            fail(f"{path}: missing '{key}'")
    if not isinstance(doc["cycles"], int) or doc["cycles"] < 0:
        fail(f"{path}: bad cycle count")
    for name, value in doc["counters"].items():
        if not isinstance(value, int):
            fail(f"{path}: counter '{name}' is not an integer")
    for name, h in doc["histograms"].items():
        for key in ("n", "sum", "max", "buckets"):
            if key not in h:
                fail(f"{path}: histogram '{name}' missing '{key}'")
        if sum(h["buckets"]) != h["n"]:
            fail(f"{path}: histogram '{name}' buckets do not sum to n")
    # The attribution gauges must cover every simulated cycle: summed
    # over the 7 categories they equal cycles * numThreads, but the
    # thread count is not in the file, so check divisibility instead.
    attr = {k: v for k, v in doc["counters"].items()
            if k.startswith("attr.")}
    if attr:
        total = sum(attr.values())
        if doc["cycles"] and total % doc["cycles"] != 0:
            fail(f"{path}: attribution total {total} is not a "
                 f"multiple of the {doc['cycles']}-cycle run")
    print(f"{path}: ok ({len(doc['counters'])} counters, "
          f"{len(doc['histograms'])} histograms)")


def check_csv(path: str) -> None:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        fail(f"{path}: empty")
    header = lines[0].split(",")
    if header[0] != "cycle":
        fail(f"{path}: first column must be 'cycle'")
    prev_cycle = -1
    for i, line in enumerate(lines[1:], start=2):
        row = line.split(",")
        if len(row) != len(header):
            fail(f"{path}: line {i} has {len(row)} fields, "
                 f"want {len(header)}")
        try:
            values = [int(v) for v in row]
        except ValueError:
            fail(f"{path}: line {i} has a non-integer field")
        if values[0] <= prev_cycle:
            fail(f"{path}: sample cycles not strictly increasing "
                 f"at line {i}")
        prev_cycle = values[0]
    print(f"{path}: ok ({len(lines) - 1} samples, "
          f"{len(header) - 1} counters)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="append", default=[],
                        help="Chrome-trace JSON file to validate")
    parser.add_argument("--stats", action="append", default=[],
                        help="stats JSON file to validate")
    parser.add_argument("--csv", action="append", default=[],
                        help="epoch-series CSV file to validate")
    parser.add_argument("--expect-chips", type=int, default=0,
                        help="require N chip processes (pids 10..10+N-1)"
                             " in every trace")
    parser.add_argument("--expect-links", type=int, default=0,
                        help="require the fabric process (pid 3) with N "
                             "per-link tracks in every trace")
    args = parser.parse_args()
    if not (args.trace or args.stats or args.csv):
        fail("nothing to check (use --trace/--stats/--csv)")
    for path in args.trace:
        check_trace(path, expect_chips=args.expect_chips,
                    expect_links=args.expect_links)
    for path in args.stats:
        check_stats(path)
    for path in args.csv:
        check_csv(path)


if __name__ == "__main__":
    main()
