#!/usr/bin/env python3
"""Compare two perf artifacts and flag host-throughput regressions.

  check_regress.py baseline.json current.json [--tolerance-pct N]

Both files must be the same kind of artifact: either two
BENCH_simperf.json reports (bench_simperf --json) or two run manifests
(cyclops-manifest-v1, from cyclops-run --manifest or any bench's
--manifest flag).

For simperf reports every workload row is matched by name; its
cyclesPerSec and mips must not drop by more than the tolerance. A
baseline from before the single-engine simulator still compares: its
"engines" array is ignored and the workload rows it produced
("engine_<name>") are skipped. For manifests the headline
run.cyclesPerSec and run.mips are compared.

Wall-clock noise is real, especially on small shared hosts, so the
tolerance is noise-aware: the effective bound is
    max(--tolerance-pct, --cov-mult * worst CoV recorded in the
        baseline's overhead experiments)
i.e. a report that measured 5% run-to-run variation is never failed
over a 6% dip. Manifests carry no CoV, so only --tolerance-pct
applies there.

A config-hash mismatch (different simulated machine) makes the
comparison apples-to-oranges: it is reported as a warning and the
numeric checks still run, since drift in defaults is itself worth
seeing, but interpret failures accordingly.

Exit status: 0 when no metric regressed beyond tolerance, 1 otherwise.
"""

import argparse
import json
import sys

status = 0


def report(msg):
    print(f"check_regress: {msg}")


def regress(msg):
    global status
    status = 1
    print(f"check_regress: REGRESSION: {msg}", file=sys.stderr)


def fail(msg):
    print(f"check_regress: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def kind(doc):
    if doc.get("schema") == "cyclops-manifest-v1":
        return "manifest"
    if doc.get("benchmark") == "simperf":
        return "simperf"
    fail("unrecognized artifact (want cyclops-manifest-v1 or a "
         "simperf report)")


def compare_metric(label, base, cur, tolerance_pct):
    """Flag cur < base beyond tolerance; report improvements too."""
    if base <= 0:
        return
    delta_pct = (cur - base) / base * 100.0
    if delta_pct < -tolerance_pct:
        regress(f"{label}: {base:.0f} -> {cur:.0f} "
                f"({delta_pct:+.1f}%, tolerance {tolerance_pct:.1f}%)")
    elif delta_pct > tolerance_pct:
        report(f"{label}: improved {delta_pct:+.1f}%")


def baseline_cov(doc):
    """Worst run-to-run CoV recorded by the baseline's experiments."""
    worst = 0.0
    for key in ("profilerOverhead", "hostObs"):
        obj = doc.get(key)
        if not isinstance(obj, dict):
            continue
        for field, value in obj.items():
            if field.endswith("CovPct") and isinstance(value, (int, float)):
                worst = max(worst, value)
    return worst


def compare_simperf(base, cur, tolerance_pct):
    base_wl = {w["name"]: w for w in base.get("workloads", [])}
    cur_wl = {w["name"]: w for w in cur.get("workloads", [])}
    # Reports from before the single-engine simulator also listed one
    # "engine_<name>" workload row per entry of their "engines" array.
    # Those engines no longer exist, so their rows are not compared.
    retired = {f"engine_{e['name']}" for e in base.get("engines", [])}
    for name in sorted(retired & base_wl.keys()):
        report(f"skipping retired engine row '{name}'")
        del base_wl[name]
    for name, bw in sorted(base_wl.items()):
        cw = cur_wl.get(name)
        if cw is None:
            regress(f"workload '{name}' disappeared from the report")
            continue
        compare_metric(f"workload {name} cyclesPerSec",
                       bw["cyclesPerSec"], cw["cyclesPerSec"],
                       tolerance_pct)
        compare_metric(f"workload {name} mips",
                       bw["mips"], cw["mips"], tolerance_pct)
    return len(base_wl)


def compare_manifest(base, cur, tolerance_pct):
    for doc, which in ((base, "baseline"), (cur, "current")):
        if "run" not in doc:
            fail(f"{which} manifest has no 'run' section")
    if base.get("workload") != cur.get("workload"):
        report(f"warning: comparing different workloads "
               f"('{base.get('workload')}' vs '{cur.get('workload')}')")
    compare_metric("run cyclesPerSec", base["run"].get("cyclesPerSec", 0),
                   cur["run"].get("cyclesPerSec", 0), tolerance_pct)
    compare_metric("run mips", base["run"].get("mips", 0),
                   cur["run"].get("mips", 0), tolerance_pct)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="older artifact (reference)")
    parser.add_argument("current", help="newer artifact to judge")
    parser.add_argument("--tolerance-pct", type=float, default=10.0,
                        help="minimum allowed drop percent "
                             "(default 10.0)")
    parser.add_argument("--cov-mult", type=float, default=3.0,
                        help="widen tolerance to this multiple of the "
                             "baseline's worst recorded CoV "
                             "(default 3.0)")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    base_kind = kind(base)
    if base_kind != kind(cur):
        fail("baseline and current are different artifact kinds")

    base_hash = (base.get("config") or {}).get("hash")
    cur_hash = (cur.get("config") or {}).get("hash")
    if base_hash and cur_hash and base_hash != cur_hash:
        report(f"warning: config hash changed "
               f"({base_hash} -> {cur_hash}) — the simulated machines "
               f"differ, throughput deltas may be intentional")

    tolerance = args.tolerance_pct
    if base_kind == "simperf":
        cov = baseline_cov(base)
        tolerance = max(tolerance, args.cov_mult * cov)
        if tolerance > args.tolerance_pct:
            report(f"noise-aware tolerance {tolerance:.1f}% "
                   f"(baseline worst CoV {cov:.1f}% x {args.cov_mult})")
        n = compare_simperf(base, cur, tolerance)
    else:
        n = compare_manifest(base, cur, tolerance)

    if status == 0:
        report(f"OK: {n} rows compared, none regressed beyond "
               f"{tolerance:.1f}%")
    sys.exit(status)


if __name__ == "__main__":
    main()
