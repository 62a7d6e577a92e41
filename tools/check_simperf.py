#!/usr/bin/env python3
"""Validate a BENCH_simperf.json report.

Checks the schema (top-level fields, workload entries including the
required multi-chip fabric row, the cycle-attribution breakdown) and:
  - wall-clock sanity: every measurement ran for a positive time and
    positive throughput;
  - the profiler-overhead experiment used enough repeats (>= 5) and
    the run-to-run coefficient of variation stayed under --max-cov,
    so the reported overhead is a median, not single-run noise;
  - the multi-chip workload row carries the fabric counters
    (messages/bytes/queueCycles/flits*) with the flit-conservation
    identity intact — a multichip row without them means the run
    bypassed the cycle-driven fabric;
  - the fabric-observability overhead experiment (fabricObsOverhead)
    has the same repeat/CoV discipline, its simCyclesDrift is exactly
    zero (enabling fabric telemetry must not move a simulated cycle),
    and its overheadPct stays under --max-fabric-overhead;
  - the fault-model overhead experiment (fabricFaultOverhead: the
    fault model armed by a benign ppm=0 flaky link vs the healthy
    fast path) obeys the same gates — simCyclesDrift exactly zero,
    bounded overheadPct — so arming fault injection is proven to be
    a host-cost-only change;
  - the hostObs section is well-formed (enough overhead repeats, a
    positive peak RSS).
"""

import argparse
import json
import sys

WORKLOAD_FIELDS = ("name", "simCycles", "instructions", "wallSeconds",
                   "cyclesPerSec", "mips", "attribution")


def fail(msg):
    print(f"check_simperf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_workload(i, w):
    where = f"workload {i}"
    for field in WORKLOAD_FIELDS:
        if field not in w:
            fail(f"{where}: missing field '{field}'")
    if not isinstance(w["name"], str) or not w["name"]:
        fail(f"{where}: empty name")
    where = f"workload '{w['name']}'"
    for field in ("simCycles", "instructions"):
        if not isinstance(w[field], int) or w[field] <= 0:
            fail(f"{where}: {field} must be a positive integer")
    if not w["wallSeconds"] > 0:
        fail(f"{where}: wallSeconds must be positive")
    if not w["mips"] > 0:
        fail(f"{where}: mips must be positive")
    attr = w["attribution"]
    if not isinstance(attr, dict) or not attr:
        fail(f"{where}: attribution must be a non-empty object")
    for cat, cycles in attr.items():
        if not isinstance(cycles, int) or cycles < 0:
            fail(f"{where}: attribution[{cat}] must be a nonneg integer")
    # Multi-chip rows must carry the fabric counters: without them the
    # row measured something that never touched the cycle-driven
    # fabric, which is the point of having it in the suite.
    if w["name"].startswith("multichip"):
        fabric = w.get("fabric")
        if not isinstance(fabric, dict):
            fail(f"{where}: multichip row missing 'fabric' counters")
        for field in ("messages", "bytes", "queueCycles",
                      "flitsInjected", "flitsDelivered",
                      "flitsInFlight", "droppedFlits", "retransmits"):
            if not isinstance(fabric.get(field), int) or \
                    fabric[field] < 0:
                fail(f"{where}: fabric.{field} must be a nonneg "
                     f"integer")
        if fabric["messages"] <= 0:
            fail(f"{where}: fabric.messages is zero — no traffic "
                 f"crossed the fabric")
        if fabric["flitsInjected"] != \
                fabric["flitsDelivered"] + fabric["flitsInFlight"] + \
                fabric["droppedFlits"]:
            fail(f"{where}: fabric flit conservation violated")


def check_overhead(name, overhead, args):
    """A median-of-repeats A/B experiment (profiler or host obs)."""
    if not isinstance(overhead, dict):
        fail(f"missing '{name}' object")
    for field in ("disabledCyclesPerSec", "enabledCyclesPerSec",
                  "overheadPct", "repeats", "disabledCovPct",
                  "enabledCovPct"):
        if field not in overhead:
            fail(f"{name}: missing field '{field}'")
    if overhead["repeats"] < 5:
        fail(f"{name}: only {overhead['repeats']} repeats — the "
             f"overhead number is single-run noise, need >= 5")
    for field in ("disabledCovPct", "enabledCovPct"):
        cov = overhead[field]
        if not isinstance(cov, (int, float)) or cov < 0:
            fail(f"{name}: {field} missing or negative")
        if cov > args.max_cov:
            fail(f"{name}: {field} {cov:.1f}% exceeds --max-cov "
                 f"{args.max_cov:.1f}% — host too noisy to trust "
                 f"the overhead measurement")


def check_hostobs(report):
    obs = report.get("hostObs")
    if not isinstance(obs, dict):
        fail("missing 'hostObs' object")
    if obs.get("enabled") is not True:
        fail("hostObs: not enabled")
    for field in ("overheadPct", "overheadRepeats", "peakRssKb"):
        if field not in obs:
            fail(f"hostObs: missing field '{field}'")
    if obs["overheadRepeats"] < 5:
        fail(f"hostObs: only {obs['overheadRepeats']} overhead repeats")
    if obs["peakRssKb"] <= 0:
        fail("hostObs: peakRssKb must be positive")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="BENCH_simperf.json path")
    parser.add_argument("--max-cov", type=float, default=50.0,
                        help="max run-to-run coefficient of variation "
                             "percent in overhead experiments "
                             "(default 50.0)")
    parser.add_argument("--max-fabric-overhead", type=float,
                        default=10.0,
                        help="max fabric-observability host overhead "
                             "percent (default 10.0; design target is "
                             "under 2 on a quiet host)")
    args = parser.parse_args()

    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.report}: {e}")

    if report.get("benchmark") != "simperf":
        fail("not a simperf report")
    workloads = report.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        fail("missing 'workloads' array")
    for i, w in enumerate(workloads):
        check_workload(i, w)
    # The fabric-lockstep path (arch::System) must stay on the
    # trajectory: require the multi-chip row next to the single-chip
    # workloads.
    if not any(w["name"].startswith("multichip") for w in workloads):
        fail("workloads: no multi-chip row (name starting "
             "'multichip') — the fabric path is not measured")

    check_overhead("profilerOverhead", report.get("profilerOverhead"),
                   args)
    fabric_obs = report.get("fabricObsOverhead")
    check_overhead("fabricObsOverhead", fabric_obs, args)
    # The determinism bar is absolute: fabric observability on vs off
    # must produce byte-identical simulated cycles.
    if fabric_obs.get("simCyclesDrift") != 0:
        fail(f"fabricObsOverhead: simCyclesDrift "
             f"{fabric_obs.get('simCyclesDrift')} != 0 — enabling "
             f"fabric telemetry changed simulated timing")
    if fabric_obs["overheadPct"] > args.max_fabric_overhead:
        fail(f"fabricObsOverhead: overheadPct "
             f"{fabric_obs['overheadPct']:.2f} exceeds "
             f"--max-fabric-overhead {args.max_fabric_overhead:.2f}")
    fault_oh = report.get("fabricFaultOverhead")
    check_overhead("fabricFaultOverhead", fault_oh, args)
    # Arming the fault model with a benign map (flaky link at ppm = 0)
    # is a host-cost-only change: every message still rides its
    # healthy path, so the simulated cycle counts must match exactly.
    if fault_oh.get("simCyclesDrift") != 0:
        fail(f"fabricFaultOverhead: simCyclesDrift "
             f"{fault_oh.get('simCyclesDrift')} != 0 — arming the "
             f"fault model changed simulated timing")
    if fault_oh["overheadPct"] > args.max_fabric_overhead:
        fail(f"fabricFaultOverhead: overheadPct "
             f"{fault_oh['overheadPct']:.2f} exceeds "
             f"--max-fabric-overhead {args.max_fabric_overhead:.2f}")
    check_hostobs(report)
    print(f"check_simperf: OK: {len(workloads)} workloads")


if __name__ == "__main__":
    main()
