#!/usr/bin/env python3
"""Repository benchmark: host throughput of the simulator.

    python3 perfbench/run.py --workload stream_triad --seed 1 \\
        --seconds 55 --trace 0

Builds perfbench/ (the simulator libraries from src/ plus the two
benchmark programs) into .bench_build/ on first use, runs one workload
for --seconds, checks its outputs, prints every metric with its unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (sim_mips, sim_mcycles_per_s,
setup_s, peak_rss_mb). --trace 1 reports the per-layer metrics: the
layer cost table (perfbench_layers), the workload's operation counts
from the stats registry, their product per layer, the explained share
of the measured run time, the tracing overhead and a distributed-STREAM
check; it also writes the benchmark's spans as a Chrome-trace JSON.

The workloads have no random input: every result is a pure function of
the configuration, so --seed is accepted and does not change the inputs.
"""

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")

# Workload -> (frontend, chips, machines constructed per call,
#              system shape for the per-epoch cost).
WORKLOADS = {
    "stream_triad": ("isa", 1, 2, "2x2x1"),
    "fft_64k": ("guest", 1, 1, "2x2x1"),
    "halo_4x4x4": ("guest", 64, 1, "4x4x4"),
    "halo_2x2x1": ("guest", 4, 1, "2x2x1"),
}

# Lines per PIB refill: pibEntries * 4 bytes / icacheLineBytes (defaults).
ICACHE_LINES_PER_REFILL = 16 * 4 // 32
FABRIC_EPOCH = 5  # FabricConfig::epoch() default: routerLatency + linkLatency

LAYERS = ["arch.thread_unit", "exec.guest", "arch.memsys", "arch.membank",
          "arch.icache", "arch.fpu", "arch.chip", "arch.system",
          "net.fabric", "setup"]


SPANS = []  # Chrome-trace complete events of this invocation


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def span(name, cat, t0, t1, tid, args=None):
    SPANS.append({"name": name, "cat": cat, "ph": "X", "pid": 1,
                  "tid": tid, "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                  "args": args or {}})


def run_cmd(cmd, timeout):
    """Run @p cmd to completion (killed and reaped on timeout)."""
    return subprocess.run(cmd, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found")
    t0 = time.monotonic_ns()
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        r = run_cmd(cmd, timeout=850)
        if r.returncode != 0:
            log(r.stdout[-4000:] + r.stderr[-4000:])
            sys.exit("perfbench: build failed")
    span("build", "setup", t0, time.monotonic_ns(), 0)


def workloads_bin(args, timeout):
    """Run perfbench_workloads; returns (records, returncode)."""
    exe = os.path.join(BUILD, "perfbench_workloads")
    r = run_cmd([exe] + args, timeout=timeout)
    if r.returncode != 0:
        log(r.stderr[-4000:])
    recs = [json.loads(line) for line in r.stdout.splitlines()
            if line.startswith("{")]
    return recs, r.returncode


def check_runs(name, runs, expected):
    """Count failed runs: host verification, exit reason, and sim
    cycles/instructions that differ from the workload's other runs.
    Prints the drift against the recorded counts."""
    t0 = time.monotonic_ns()
    keys = [(r["sim_cycles"], r["instructions"]) for r in runs]
    common = max(set(keys), key=keys.count)
    failed = 0
    for r, k in zip(runs, keys):
        ok = r["verified"] and r["exit"] == "allHalted" and k == common
        if not ok:
            failed += 1
            log(f"perfbench: {name} run failed: verified={r['verified']} "
                f"exit={r['exit']} cycles={k[0]} instructions={k[1]}")
    dc = common[0] - expected[name]["sim_cycles"]
    di = common[1] - expected[name]["instructions"]
    print(f"{name}: sim_cycles {common[0]} (drift {dc:+d}), "
          f"instructions {common[1]} (drift {di:+d}) vs perfbench/"
          f"expected.json")
    span("verify", "phase", t0, time.monotonic_ns(), 1)
    return failed, common


def metric_units(kind):
    """Metric name -> unit for BENCHMARK.json's "end_to_end" or
    "per_layer" list: the benchmark reports exactly those."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def emit(correct, attempted, failed, metrics):
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>18.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def phase_spans(recs):
    for r in recs:
        if r["kind"] in ("setup", "run", "traced", "dstream"):
            span(r["kind"], "phase", r["t0"], r["t1"], 1,
                 {k: r[k] for k in ("sim_cycles", "instructions")
                  if k in r})


def end_to_end(name, seconds, expected):
    recs, rc = workloads_bin(["timed", name, str(seconds)],
                             timeout=seconds + 120)
    phase_spans(recs)
    runs = [r for r in recs if r["kind"] == "run"]
    setups = [(r["t1"] - r["t0"]) * 1e-9 for r in recs
              if r["kind"] == "setup"]
    end = [r for r in recs if r["kind"] == "end"]
    if not runs or not setups or not end:
        sys.exit(f"perfbench: {name} produced no runs (exit {rc})")
    failed, _ = check_runs(name, runs, expected)
    walls = [(r["t1"] - r["t0"]) * 1e-9 for r in runs]
    mips = [r["instructions"] / w / 1e6 for r, w in zip(runs, walls)]
    mcps = [r["sim_cycles"] / w / 1e6 for r, w in zip(runs, walls)]
    # Best of the runs, as STREAM reports: memory contention from other
    # tenants of the host only ever slows a run down.
    values = {"sim_mips": max(mips), "sim_mcycles_per_s": max(mcps),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": end[0]["peak_rss_kb"] / 1024.0}
    print(f"{name}: {len(runs)} runs (best {max(mips):.4f}, median "
          f"{statistics.median(mips):.4f} MIPS), setup_s median of "
          f"{len(setups)}")
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in metric_units("end_to_end").items()}
    correct = failed == 0 and rc == 0
    return correct, len(runs), failed, metrics


# --- traced run -----------------------------------------------------------

def layer_table(shape):
    """ns/op of every layer function: the fastest of 3 repetitions, like
    the run time it is compared with."""
    exe = os.path.join(BUILD, "perfbench_layers")
    out = os.path.join(OUT, "layers.json")
    spans_path = os.path.join(OUT, "layers.spans.jsonl")
    # The 2x2x1 epochs always run: the remote-store row is on 2x2x1.
    skip = ["--benchmark_filter=-/4x4x4"] if shape == "2x2x1" else []
    r = run_cmd([exe, f"--spans={spans_path}",
                 "--benchmark_min_time=0.1",
                 "--benchmark_repetitions=3",
                 f"--benchmark_out={out}",
                 "--benchmark_out_format=json"] + skip, timeout=150)
    if r.returncode != 0:
        log(r.stderr[-4000:])
        sys.exit("perfbench: layer table failed")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    rows = {}
    with open(out) as f:
        for b in json.load(f)["benchmarks"]:
            if b["run_type"] != "iteration":
                continue
            name = b["run_name"].split("/manual_time")[0]
            ns = b["real_time"] * scale[b["time_unit"]] / b["ops"]
            if name in rows and rows[name]["ns"] <= ns:
                continue
            rows[name] = {"ns": ns, "epochs": b.get("epochs")}
            if name == "system.remote_store":
                rows[name]["epochs"] /= b["ops"]  # epochs per store
    with open(spans_path) as f:
        for line in f:
            s = json.loads(line)
            span(s["name"], "layer", s["t0"], s["t1"], 2,
                 {"iterations": s["iterations"]})
    table = {k: v["ns"] for k, v in rows.items()
             if not k.startswith("system.")}

    def epoch_ns(tag):
        d = rows[f"system.epoch_default/{tag}"]
        lng = rows[f"system.epoch_long/{tag}"]
        return (d["ns"] - lng["ns"]) / (d["epochs"] - lng["epochs"])

    table["system.epoch_ns"] = epoch_ns(shape)
    # The System's own share of a remote store: the whole path less the
    # guest op, the one-hop inject and the 2x2x1 epochs the stores span.
    st = rows["system.remote_store"]
    table["system.remote_store_ns"] = max(
        0.0, st["ns"] - table["guest.alu_ns"]
        - table["fabric.inject_ns_per_hop"]
        - st["epochs"] * epoch_ns("2x2x1"))
    return table


def sum_counters(paths, pattern):
    rx = re.compile(pattern)
    total = 0
    for p in paths:
        with open(p) as f:
            for k, v in json.load(f)["counters"].items():
                if rx.match(k):
                    total += v
    return total


def stats_counts(prefix, sim_cycles, chips):
    """Operation counts of one traced run, summed over chips."""
    paths = sorted(glob.glob(prefix + ".stats.json*"))
    if not paths:
        sys.exit(f"perfbench: no stats export at {prefix}.stats.json")
    scale = 1.0
    if chips == 1:
        # runStream exports its longer run only: scale its counts to the
        # whole call by simulated cycles.
        with open(paths[0]) as f:
            scale = sim_cycles / json.load(f)["cycles"]

    def c(pattern):
        return sum_counters(paths, pattern) * scale

    n = {
        "mem.ops": c(r"^mem\.(loads|stores|atomics)$"),
        "mem.hits": c(r"^mem\.(local|remote)Hits$"),
        "mem.misses": c(r"^mem\.(local|remote)Misses$"),
        "dcache.portWaitCycles": c(r"^dcache\d+\.portWaitCycles$"),
        "dcache.mshrFullWaits": c(r"^dcache\d+\.mshrFullWaits$"),
        "bank.accesses": c(r"^bank\d+\.accesses$"),
        "bank.queueCycles": c(r"^bank\d+\.queueCycles$"),
        "icache.lookups": c(r"^icache\d+\.(hits|misses)$"),
        "icache.misses": c(r"^icache\d+\.misses$"),
        "fpu.ops": c(r"^fpu\d+\.ops$"),
        "fpu.conflicts": c(r"^fpu\d+\.conflicts$"),
    }
    for cat in ("run", "icacheMiss", "dcacheMiss", "bankContention",
                "fpuArb", "barrierWait", "remoteWait", "sleep"):
        n["attr." + cat] = c(rf"^attr\.{cat}$")
    fabric = {"fabric.messages": 0, "fabric.flitsInjected": 0,
              "fabric.queueCycles": 0, "fabric.retransmits": 0,
              "fabric.message_hops": 0}
    fpath = prefix + ".fabric.json"
    if os.path.exists(fpath):
        with open(fpath) as f:
            fj = json.load(f)
        for k in list(fabric):
            if k in fj["counters"]:
                fabric[k] = fj["counters"][k]
        fabric["fabric.message_hops"] = sum(p["messages"] * p["hops"]
                                            for p in fj["pairs"])
    n.update(fabric)
    return n


def breakdown(name, ns, n, run_s, sim_cycles, instructions, setup_s):
    """Predicted host seconds per layer: ns/op x count. Nested calls are
    charged to the callee (self time), so the layers do not overlap."""
    frontend, chips, machines, _ = WORKLOADS[name]
    mem_ops, fp_ops = n["mem.ops"], n["fpu.ops"]
    hit, miss = ns["mem.access_hit_ns"], ns["mem.access_miss_ns"]
    reserve = ns["bank.reserve_ns"]
    isa = frontend == "isa"
    if isa:
        frontend_ns = ((instructions - mem_ops - fp_ops)
                       * ns["thread_unit.alu_ns"]
                       + mem_ops * max(0.0, ns["thread_unit.load_hit_ns"]
                                       - hit)
                       + fp_ops * max(0.0, ns["thread_unit.fp_ns"]
                                      - ns["fpu.dispatch_ns"]))
    else:
        frontend_ns = ((instructions - mem_ops) * ns["guest.alu_ns"]
                       + mem_ops * max(0.0, ns["guest.load_ns"] - hit))
    epochs = sim_cycles / FABRIC_EPOCH if chips > 1 else 0
    pred_ns = {
        "arch.thread_unit": frontend_ns if isa else 0.0,
        "exec.guest": 0.0 if isa else frontend_ns,
        "arch.memsys": n["mem.hits"] * hit
            + n["mem.misses"] * max(0.0, miss - reserve),
        "arch.membank": n["bank.accesses"] * reserve,
        "arch.icache": n["icache.lookups"] / ICACHE_LINES_PER_REFILL
            * ns["icache.refill_ns"],
        "arch.fpu": (fp_ops + n["fpu.conflicts"]) * ns["fpu.dispatch_ns"],
        "arch.chip": chips * sim_cycles * ns["chip.idle_cycle_ns"],
        "arch.system": epochs * ns["system.epoch_ns"]
            + n["fabric.messages"] * ns["system.remote_store_ns"],
        "net.fabric": n["fabric.message_hops"]
            * ns["fabric.inject_ns_per_hop"],
        "setup": machines * setup_s * 1e9,
    }
    pred = {k: v * 1e-9 for k, v in pred_ns.items()}
    explained = sum(pred.values())
    print(f"{name}: layer breakdown of {run_s:.4f} s measured "
          f"(predicted = ns/op x count)")
    for k in LAYERS:
        print(f"  {k:18s} {pred[k]:10.4f} s  {100 * pred[k] / run_s:6.1f}%")
    print(f"  {'unexplained':18s} {run_s - explained:10.4f} s  "
          f"{100 * (run_s - explained) / run_s:6.1f}%")
    return pred, epochs, 100.0 * explained / run_s


def write_trace(name, seed):
    path = os.path.join(ROOT, ".bench_build",
                        f"perfbench-trace-{name}-seed{seed}.json")
    meta = [{"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": f"perfbench {name}"}}]
    for tid, label in ((0, "run.py"), (1, "workload phases"),
                       (2, "layer batches")):
        meta.append({"name": "thread_name", "ph": "M", "pid": 1,
                     "tid": tid, "args": {"name": label}})
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ns",
                   "traceEvents": meta + SPANS}, f)
    print(f"{name}: Chrome trace of the benchmark's spans: {path}")


def per_layer(name, seconds, seed, expected):
    os.makedirs(OUT, exist_ok=True)
    frontend, chips, _, shape = WORKLOADS[name]
    t0 = time.monotonic_ns()
    ns = layer_table(shape)
    span("layer table", "run.py", t0, time.monotonic_ns(), 0)

    t0 = time.monotonic_ns()
    prefix = os.path.join(OUT, name)
    for p in glob.glob(prefix + ".*"):
        os.remove(p)
    recs, rc = workloads_bin(["traced", name, str(seconds), OUT],
                             timeout=seconds + 120)
    phase_spans(recs)
    span("workload", "run.py", t0, time.monotonic_ns(), 0)
    runs = [r for r in recs if r["kind"] in ("run", "traced")]
    setups = [(r["t1"] - r["t0"]) * 1e-9 for r in recs
              if r["kind"] == "setup"]
    if not runs or not setups:
        sys.exit(f"perfbench: {name} produced no runs (exit {rc})")
    failed, (sim_cycles, instructions) = check_runs(name, runs, expected)

    def best_mips(kind):
        return max(r["instructions"] / ((r["t1"] - r["t0"]) * 1e-3)
                   for r in runs if r["kind"] == kind)

    run_s = min((r["t1"] - r["t0"]) * 1e-9 for r in runs
                if r["kind"] == "run")
    overhead = 100.0 * (1.0 - best_mips("traced") / best_mips("run"))
    n = stats_counts(prefix, sim_cycles, chips)
    pred, epochs, explained = breakdown(name, ns, n, run_s, sim_cycles,
                                        instructions,
                                        statistics.median(setups))

    t0 = time.monotonic_ns()
    drecs, drc = workloads_bin(["dstream", OUT], timeout=120)
    phase_spans(drecs)
    span("dstream", "run.py", t0, time.monotonic_ns(), 0)
    dstream = [r for r in drecs if r["kind"] == "dstream"]
    if not dstream:
        sys.exit(f"perfbench: distributed STREAM produced no run (exit {drc})")
    dfailed, (dcycles, dinstr) = check_runs("dstream", dstream, expected)
    dn = stats_counts(os.path.join(OUT, "dstream"), dcycles, 64)

    accesses = n["mem.hits"] + n["mem.misses"]
    values = {
        "thread_unit.instructions": instructions if frontend == "isa" else 0,
        "thread_unit.alu_ns": ns["thread_unit.alu_ns"],
        "thread_unit.load_hit_ns": ns["thread_unit.load_hit_ns"],
        "thread_unit.fp_ns": ns["thread_unit.fp_ns"],
        "guest.ops": instructions if frontend == "guest" else 0,
        "guest.alu_ns": ns["guest.alu_ns"],
        "guest.load_ns": ns["guest.load_ns"],
        "guest.batch_ns": ns["guest.batch_ns"],
        "mem.accesses": accesses,
        "mem.hit_ratio": n["mem.hits"] / accesses if accesses else 0.0,
        "mem.access_hit_ns": ns["mem.access_hit_ns"],
        "mem.access_miss_ns": ns["mem.access_miss_ns"],
        "dcache.portWaitCycles": n["dcache.portWaitCycles"],
        "dcache.mshrFullWaits": n["dcache.mshrFullWaits"],
        "bank.accesses": n["bank.accesses"],
        "bank.queueCycles": n["bank.queueCycles"],
        "bank.reserve_ns": ns["bank.reserve_ns"],
        "icache.misses": n["icache.misses"],
        "icache.refill_ns": ns["icache.refill_ns"],
        "fpu.ops": n["fpu.ops"],
        "fpu.conflicts": n["fpu.conflicts"],
        "fpu.dispatch_ns": ns["fpu.dispatch_ns"],
        "chip.sim_cycles": sim_cycles,
        "chip.idle_cycle_ns": ns["chip.idle_cycle_ns"],
        "system.epochs": epochs,
        "system.epoch_ns": ns["system.epoch_ns"],
        "system.remote_store_ns": ns["system.remote_store_ns"],
        "fabric.messages": n["fabric.messages"],
        "fabric.flitsInjected": n["fabric.flitsInjected"],
        "fabric.queueCycles": n["fabric.queueCycles"],
        "fabric.retransmits": n["fabric.retransmits"],
        "fabric.inject_ns_per_hop": ns["fabric.inject_ns_per_hop"],
        "fabric.advance_ns": ns["fabric.advance_ns"],
        "stats.counter_add_ns": ns["stats.counter_add_ns"],
        "trace.record_ns": ns["trace.record_ns"],
        "traced_overhead_pct": overhead,
        "run_s": run_s,
        "explained_pct": explained,
        "unexplained_s": run_s - sum(pred.values()),
        "dstream.sim_cycles": dcycles,
        "dstream.instructions": dinstr,
        "dstream.fabric_messages": dn["fabric.messages"],
        "dstream.mem_accesses": dn["mem.hits"] + dn["mem.misses"],
    }
    for cat in ("run", "icacheMiss", "dcacheMiss", "bankContention",
                "fpuArb", "barrierWait", "remoteWait", "sleep"):
        values["attr." + cat] = n["attr." + cat]
    for k in LAYERS:
        values[k + ".host_s_pred"] = pred[k]
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in metric_units("per_layer").items()}
    write_trace(name, seed)
    correct = failed == 0 and dfailed == 0 and rc == 0 and drc == 0
    return correct, len(runs) + 1, failed + dfailed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="accepted; the workloads have no random input")
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    expected = load_expected()
    if a.trace:
        # The layer table takes about as long again as the traced calls.
        result = per_layer(a.workload, a.seconds / 4, a.seed, expected)
    else:
        result = end_to_end(a.workload, a.seconds, expected)
    emit(*result)


if __name__ == "__main__":
    main()
