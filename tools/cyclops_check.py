#!/usr/bin/env python3
"""Check the simulator's artifacts, one subcommand per kind.

  cyclops_check.py trace FILE... [--expect-chips N] [--expect-links N]
  cyclops_check.py stats FILE...           stats JSON (--stats-json)
  cyclops_check.py series FILE...          epoch-series CSV (--stats-csv)
  cyclops_check.py fabric FILE [--heatmap CSV] [--expect-links N]
  cyclops_check.py prof BASE... [--report [--top N]]
  cyclops_check.py faultcamp FILE...       cyclops-faultcamp report
  cyclops_check.py golden GOLDEN ACTUAL    bench CSV against its golden
  cyclops_check.py manifest FILE...        run manifest (--manifest)

Each subcommand prints one "ok" line per file, or exits 1 with a
message naming the file and the identity that broke. The checks are
the accounting identities the writers promise (histogram buckets sum
to n, flits are conserved, folded weights sum to the sample count), so
a pass is a consistency proof, not just a parse. Byte-identity across
runs is the ctest driver's job (tools/cyclops_case.cmake).
"""

import argparse
import json
import sys


def fail(msg):
    print(f"cyclops_check: {msg}", file=sys.stderr)
    sys.exit(1)


def require(obj, keys, where):
    for key in keys:
        if key not in obj:
            fail(f"{where} missing '{key}'")


def load_json(path, schema=None, keys=()):
    """A JSON object carrying @p schema (when given) and @p keys."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: not a JSON object")
    if schema and doc.get("schema") != schema:
        fail(f"{path}: schema {doc.get('schema')!r} is not {schema}")
    require(doc, keys, path)
    return doc


def check_histogram(where, name, h):
    require(h, ("n", "sum", "max", "buckets"), f"{where}: histogram '{name}'")
    if sum(h["buckets"]) != h["n"]:
        fail(f"{where}: histogram '{name}' buckets do not sum to n")


def read_csv(path):
    """The lines of a CSV file, each split into its cells."""
    with open(path) as f:
        return [line.split(",") for line in f.read().splitlines()]


def body_rows(path, table, header, start):
    """(line number, cells) of table[start:], each as wide as @p header."""
    for i, row in enumerate(table[start:], start=start + 1):
        if len(row) != len(header):
            fail(f"{path}: line {i} has {len(row)} fields, "
                 f"want {len(header)}")
        yield i, row


def ints(path, lineno, cells):
    try:
        return [int(v) for v in cells]
    except ValueError:
        fail(f"{path}: line {lineno} has a non-integer field")


# --- trace -----------------------------------------------------------

def check_trace(path, expect_chips, expect_links):
    """Chrome trace-event JSON as Perfetto/about:tracing load it.

    pid 1 is the standalone chip, 3 the fabric ("cyclops-fabric", one
    "link.<a>-><b>" thread per directed link, the "net" category), and
    10+i chip i of a multi-chip run ("cyclops-chipI"); no exporter
    writes pid 2. --expect-chips N requires exactly the N chip
    processes, each with events; --expect-links N the fabric process
    with N link tracks and events.
    """
    events = load_json(path, keys=("traceEvents",))["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")
    # A trace with no events (empty ring export, or metadata only) is
    # valid Chrome-trace JSON: Perfetto loads it, and the tracer emits
    # it when nothing was recorded.
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
        require(ev, ("ph", "pid"), f"{path}: event {i}")
        if ev["pid"] == 2:
            fail(f"{path}: event {i} on the unused pid 2")
        ph = ev["ph"]
        if ph == "M":
            if "name" not in ev or "args" not in ev:
                fail(f"{path}: metadata event {i} malformed")
            name = str(ev["args"].get("name", ""))
            if (ev["name"] == "process_name" and ev["pid"] == 3 and
                    name == "cyclops-fabric"):
                fabric_process_named = True
            if (ev["name"] == "thread_name" and ev["pid"] == 3 and
                    name.startswith("link.")):
                link_tracks.add(name)
            if (ev["name"] == "process_name" and ev["pid"] >= 10 and
                    name.startswith("cyclops-chip")):
                chip_procs[ev["pid"]] = name
            continue
        require(ev, ("name", "tid", "ts", "cat"), f"{path}: event {i}")
        if ev["cat"] == "net":
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
            # through a shared id; 'f' binds to the enclosing slice.
            if "id" not in ev:
                fail(f"{path}: flow event {i} missing 'id'")
            if ph == "f" and ev.get("bp") != "e":
                fail(f"{path}: flow-end event {i} missing bp=e")
            flow_ids[ev["id"]] = flow_ids.get(ev["id"], 0) + 1
            n_flows += 1
        else:
            fail(f"{path}: event {i} has unknown phase '{ph}'")
    # The exporter sorts each process's events on its own, so only
    # within a pid is chronological order guaranteed.
    by_pid = {}
    for ev in events:
        if ev["ph"] != "M":
            by_pid.setdefault(ev["pid"], []).append(ev["ts"])
    for pid, ts in by_pid.items():
        if ts != sorted(ts):
            fail(f"{path}: pid {pid} events not sorted by timestamp")
    # A chip process's name must match its pid so Perfetto tracks line
    # up with chip ids.
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
            if not by_pid.get(pid):
                fail(f"{path}: chip process pid {pid} "
                     f"(cyclops-chip{pid - 10}) has no events")
    # Ring-buffer drops can orphan a flow endpoint, but an id can never
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
        if not by_pid.get(3):
            fail(f"{path}: fabric process (pid 3) has no events")
    extra = ""
    if chip_procs:
        extra += f", {len(chip_procs)} chips"
    if link_tracks:
        extra += f", {len(link_tracks)} links, {n_flows} flow events"
    print(f"{path}: ok ({len(events)} events, {n_spans} spans{extra})")


# --- stats and series ------------------------------------------------

def check_stats(path):
    doc = load_json(path, keys=("cycles", "counters", "histograms"))
    if not isinstance(doc["cycles"], int) or doc["cycles"] < 0:
        fail(f"{path}: bad cycle count")
    for name, value in doc["counters"].items():
        if not isinstance(value, int):
            fail(f"{path}: counter '{name}' is not an integer")
    for name, h in doc["histograms"].items():
        check_histogram(path, name, h)
    # The attribution gauges cover every simulated cycle: summed over
    # the categories they equal cycles * numThreads, but the thread
    # count is not in the file, so check divisibility instead.
    attr = [v for k, v in doc["counters"].items() if k.startswith("attr.")]
    if attr and doc["cycles"] and sum(attr) % doc["cycles"] != 0:
        fail(f"{path}: attribution total {sum(attr)} is not a "
             f"multiple of the {doc['cycles']}-cycle run")
    print(f"{path}: ok ({len(doc['counters'])} counters, "
          f"{len(doc['histograms'])} histograms)")


def check_series(path):
    table = read_csv(path)
    if not table:
        fail(f"{path}: empty")
    header = table[0]
    if header[0] != "cycle":
        fail(f"{path}: first column must be 'cycle'")
    prev_cycle = -1
    for i, row in body_rows(path, table, header, 1):
        cycle = ints(path, i, row)[0]
        if cycle <= prev_cycle:
            fail(f"{path}: sample cycles not strictly increasing "
                 f"at line {i}")
        prev_cycle = cycle
    print(f"{path}: ok ({len(table) - 1} samples, "
          f"{len(header) - 1} counters)")


# --- fabric ----------------------------------------------------------

LINK_FIELDS = ("flits", "busyCycles", "stallCycles", "occFlitCycles",
               "occPeak")
HEATMAP_COLUMNS = ["kind", "src", "dst", "dir", "messages", "bytes",
                   *LINK_FIELDS]


def check_fabric(path, expect_links):
    """The cyclops-fabric-v1 file written by --fabric-stats (DESIGN.md
    section 17). Its conservation identities tie the per-link telemetry
    to the global counters; any drift means a link double-counts or
    loses traffic:

      flitsInjected == flitsDelivered + flitsInFlight + droppedFlits
      sum(pair.messages|bytes|flits) == fabric.messages|bytes|flitsInjected
      sum(link.flits) == sum(pair.linkFlits)
      sum(link.stallCycles) == fabric.queueCycles
      per-link counters == links[] entries
      total.sum == queue.sum + wire.sum

    While the link-fault map is empty ("faults".active false) three
    more hold; detours and retransmits break them on a degraded fabric:
    pair.linkFlits == flits * hops, link.busyCycles == link.flits, and
    every latency histogram has one sample per message.
    """
    doc = load_json(path, schema="cyclops-fabric-v1",
                    keys=("cycles", "topology", "faults", "counters",
                          "histograms", "pairs", "links"))
    faults = doc["faults"]
    require(faults, ("active", "seed", "atCycle", "links"),
            f"{path}: faults section")
    for i, lf in enumerate(faults["links"]):
        require(lf, ("src", "dst", "kind", "flakyPpm", "escapePpm",
                     "derate"), f"{path}: fault link {i}")
        if lf["kind"] not in ("dead", "flaky", "derated"):
            fail(f"{path}: fault link {i} has unknown kind "
                 f"'{lf['kind']}'")
        if lf["flakyPpm"] > 1_000_000 or lf["escapePpm"] > 1_000_000:
            fail(f"{path}: fault link {i} probabilities exceed 1e6 ppm")
    if faults["active"] and not faults["links"]:
        fail(f"{path}: faults active with an empty link list")
    topo = doc["topology"]
    require(topo, ("dimX", "dimY", "dimZ", "torus", "chips", "links"),
            f"{path}: topology")
    if topo["chips"] != topo["dimX"] * topo["dimY"] * topo["dimZ"]:
        fail(f"{path}: topology chips {topo['chips']} != "
             f"{topo['dimX']}x{topo['dimY']}x{topo['dimZ']}")
    pairs, links = doc["pairs"], doc["links"]
    if topo["links"] != len(links):
        fail(f"{path}: topology.links {topo['links']} != "
             f"{len(links)} link records")
    if expect_links and len(links) != expect_links:
        fail(f"{path}: {len(links)} links, want --expect-links "
             f"{expect_links}")

    counters = doc["counters"]
    require(counters, ("fabric.messages", "fabric.bytes",
                       "fabric.queueCycles", "fabric.flitsInjected",
                       "fabric.flitsDelivered", "fabric.flitsInFlight",
                       "fabric.droppedFlits", "fabric.rerouted",
                       "fabric.retransmits", "fabric.retries",
                       "fabric.crcErrors", "fabric.unroutable"),
            f"{path}: counters")
    faulty = faults["active"]
    messages = counters["fabric.messages"]
    injected = counters["fabric.flitsInjected"]
    delivered = counters["fabric.flitsDelivered"]
    in_flight = counters["fabric.flitsInFlight"]
    dropped = counters["fabric.droppedFlits"]
    if injected != delivered + in_flight + dropped:
        fail(f"{path}: flit conservation violated: injected {injected} "
             f"!= delivered {delivered} + in-flight {in_flight} "
             f"+ dropped {dropped}")
    if not faulty:
        for name in ("fabric.droppedFlits", "fabric.rerouted",
                     "fabric.retransmits", "fabric.crcErrors",
                     "fabric.unroutable"):
            if counters[name] != 0:
                fail(f"{path}: healthy fabric has nonzero {name} "
                     f"({counters[name]})")

    # Chip-pair matrix sums equal the global counters exactly.
    for i, p in enumerate(pairs):
        require(p, ("src", "dst", "messages", "bytes", "flits", "hops",
                    "linkFlits"), f"{path}: pair {i}")
        route = f"{path}: pair {p['src']}->{p['dst']}"
        if p["src"] == p["dst"]:
            fail(f"{path}: pair {i} is self-addressed")
        if p["messages"] == 0:
            fail(f"{path}: pair {i} has zero messages (pairs with no "
                 f"traffic are omitted)")
        if not faulty and p["linkFlits"] != p["flits"] * p["hops"]:
            fail(f"{route} linkFlits {p['linkFlits']} != flits x hops "
                 f"{p['flits'] * p['hops']} on a healthy fabric")
        if faulty and p["flits"] and p["linkFlits"] < p["flits"]:
            fail(f"{route} linkFlits {p['linkFlits']} < flits "
                 f"{p['flits']} (every attempt crosses at least one "
                 f"link)")
    if sum(p["messages"] for p in pairs) != messages:
        fail(f"{path}: pair message sum != fabric.messages")
    if sum(p["bytes"] for p in pairs) != counters["fabric.bytes"]:
        fail(f"{path}: pair byte sum != fabric.bytes")
    if sum(p["flits"] for p in pairs) != injected:
        fail(f"{path}: pair flit sum != fabric.flitsInjected")

    # Every flit of every transmission attempt crosses every link of
    # its (possibly detoured) route, and the pair matrix accounts the
    # same crossings in linkFlits: the two views agree, faults or not.
    for i, l in enumerate(links):
        require(l, ("src", "dst", "dir") + LINK_FIELDS, f"{path}: link {i}")
        link = f"{path}: link {l['src']}->{l['dst']}"
        if not faulty and l["busyCycles"] != l["flits"]:
            fail(f"{link} busyCycles {l['busyCycles']} != flits "
                 f"{l['flits']} (one flit per cycle)")
        if faulty and l["busyCycles"] < l["flits"]:
            fail(f"{link} busyCycles {l['busyCycles']} < flits "
                 f"{l['flits']} (derating only stretches occupancy)")
    link_flits = sum(l["flits"] for l in links)
    pair_link_flits = sum(p["linkFlits"] for p in pairs)
    if link_flits != pair_link_flits:
        fail(f"{path}: link flit sum {link_flits} != "
             f"pair linkFlits sum {pair_link_flits}")
    stall = sum(l["stallCycles"] for l in links)
    if stall != counters["fabric.queueCycles"]:
        fail(f"{path}: link stall sum {stall} != fabric.queueCycles "
             f"{counters['fabric.queueCycles']}")
    # The per-link scalars are registered twice (links[] and the
    # counters map); both views agree.
    for l in links:
        for field in LINK_FIELDS:
            name = f"fabric.link.{l['src']}->{l['dst']}.{field}"
            require(counters, (name,), f"{path}: counters")
            if counters[name] != l[field]:
                fail(f"{path}: counter {name} {counters[name]} != "
                     f"links[] value {l[field]}")

    # Latency split: one sample per message in each histogram (an
    # abandoned message is never sampled), and queue + wire is exact.
    hists = doc["histograms"]
    for name in ("fabric.latency.total", "fabric.latency.queue",
                 "fabric.latency.wire"):
        require(hists, (name,), f"{path}: histograms")
        h = hists[name]
        check_histogram(path, name, h)
        if not faulty and h["n"] != messages:
            fail(f"{path}: histogram '{name}' has {h['n']} samples, "
                 f"want one per message ({messages})")
        if faulty and h["n"] > messages:
            fail(f"{path}: histogram '{name}' has {h['n']} samples "
                 f"for {messages} messages")
    total = hists["fabric.latency.total"]["sum"]
    queue = hists["fabric.latency.queue"]["sum"]
    wire = hists["fabric.latency.wire"]["sum"]
    if total != queue + wire:
        fail(f"{path}: latency split broken: total.sum {total} "
             f"!= queue.sum {queue} + wire.sum {wire}")

    # The epoch series, when present, ends on the final totals.
    series = doc.get("series")
    if series is not None:
        if not series.get("counters"):
            fail(f"{path}: series has no counters")
        rows = {len(v) for v in series["counters"].values()}
        if len(rows) != 1 or len(series["cycle"]) not in rows:
            fail(f"{path}: series columns have ragged row counts")
        for name, col in series["counters"].items():
            if name in counters and col and col[-1] != counters[name]:
                fail(f"{path}: series '{name}' final value {col[-1]} "
                     f"!= end-of-run counter {counters[name]}")

    note = ""
    if faulty:
        note = (f", {len(faults['links'])} faulty links: "
                f"{counters['fabric.rerouted']} rerouted, "
                f"{counters['fabric.retransmits']} retransmits, "
                f"{dropped} flits dropped")
    print(f"{path}: ok ({len(links)} links, {len(pairs)} pairs, "
          f"{messages} messages, {injected} flits conserved{note})")
    return doc


def check_fabric_heatmap(path, doc):
    """The --fabric-heatmap CSV agrees with its JSON row for row: pair
    rows are the (src, dst) matrix, link rows the per-link columns."""
    table = read_csv(path)
    if not table or table[0] != ["# cyclops-fabric-heatmap-v1"]:
        fail(f"{path}: missing cyclops-fabric-heatmap-v1 header")
    if len(table) < 2 or table[1] != HEATMAP_COLUMNS:
        fail(f"{path}: bad column header")
    pair_rows = {}
    link_rows = {}
    for i, row in body_rows(path, table, HEATMAP_COLUMNS, 2):
        vals = ints(path, i, row[1:])
        src, dst, direction = vals[0], vals[1], vals[2]
        if row[0] == "pair":
            if direction != -1:
                fail(f"{path}: line {i}: pair rows use dir=-1")
            pair_rows[(src, dst)] = vals[3:6]  # messages, bytes, flits
        elif row[0] == "link":
            link_rows[(src, dst)] = vals[5:]  # LINK_FIELDS
        else:
            fail(f"{path}: line {i} has unknown kind '{row[0]}'")
    want_pairs = {(p["src"], p["dst"]):
                  [p["messages"], p["bytes"], p["flits"]]
                  for p in doc["pairs"]}
    if pair_rows != want_pairs:
        fail(f"{path}: pair rows disagree with the JSON chip-pair "
             f"matrix")
    want_links = {(l["src"], l["dst"]): [l[f] for f in LINK_FIELDS]
                  for l in doc["links"]}
    if link_rows != want_links:
        fail(f"{path}: link rows disagree with the JSON links array")
    # Everything a chip sends appears in exactly one row of the matrix.
    if sum(v[2] for v in pair_rows.values()) != \
            doc["counters"]["fabric.flitsInjected"]:
        fail(f"{path}: pair-matrix flit total != fabric.flitsInjected")
    print(f"{path}: ok ({len(pair_rows)} pair rows, "
          f"{len(link_rows)} link rows)")


# --- prof ------------------------------------------------------------

def check_prof_json(path):
    doc = load_json(path, keys=("profInterval", "cycles", "samples",
                                "unmappedSamples", "symbols", "hotPcs",
                                "threads", "igClasses", "banks"))
    for key in ("profInterval", "cycles", "samples", "unmappedSamples"):
        if not isinstance(doc[key], int) or doc[key] < 0:
            fail(f"{path}: '{key}' is not a non-negative integer")
    total = doc["samples"]
    if doc["unmappedSamples"] > total:
        fail(f"{path}: unmappedSamples exceeds samples")
    for table, keys in (("symbols", ("symbol", "addr", "samples", "pct")),
                        ("hotPcs", ("pc", "symbol", "samples"))):
        prev = None
        for i, s in enumerate(doc[table]):
            require(s, keys, f"{path}: {table}[{i}]")
            if prev is not None and s["samples"] > prev:
                fail(f"{path}: {table} not sorted by samples descending")
            prev = s["samples"]
    sym_total = sum(s["samples"] for s in doc["symbols"])
    if sym_total != total:
        fail(f"{path}: symbol samples sum to {sym_total}, want {total}")
    if len(doc["hotPcs"]) > 32:
        fail(f"{path}: more than 32 hot PCs")
    thread_total = sum(t["samples"] for t in doc["threads"])
    if thread_total != total:
        fail(f"{path}: per-thread samples sum to {thread_total}, "
             f"want {total}")
    for t in doc["threads"]:
        if t["samples"] == 0:
            fail(f"{path}: tid {t['tid']} listed with zero samples")
    for i, c in enumerate(doc["igClasses"]):
        require(c, ("class", "accesses", "hits", "misses"),
                f"{path}: igClasses[{i}]")
        # Scratchpad accesses are counted but are neither cache hits
        # nor misses, hence <= rather than ==.
        if c["hits"] + c["misses"] > c["accesses"]:
            fail(f"{path}: igClass '{c['class']}' hits+misses exceed "
                 f"accesses")
    for i, b in enumerate(doc["banks"]):
        require(b, ("bank", "accesses", "busyCycles", "queueCycles"),
                f"{path}: banks[{i}]")
    print(f"{path}: ok ({total} samples, {len(doc['symbols'])} symbols)")
    return doc


def check_folded(path, samples):
    total = 0
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                fail(f"{path}: blank line {ln}")
            stack, sep, count = line.rpartition(" ")
            if not sep or not count.isdigit():
                fail(f"{path}: line {ln} is not 'stack count'")
            if not stack.startswith("tu") or ";" not in stack:
                fail(f"{path}: line {ln} stack must be 'tuN;symbol'")
            total += int(count)
    if total != samples:
        fail(f"{path}: folded weights sum to {total}, "
             f"want {samples} samples")
    print(f"{path}: ok ({total} folded samples)")


def check_bank_heatmap(path):
    table = read_csv(path)
    if not table:
        fail(f"{path}: empty")
    header = table[0]
    if header[:2] != ["row", "quad"] or \
            any(h != f"bank{i}" for i, h in enumerate(header[2:])):
        fail(f"{path}: bad header '{','.join(header)}'")
    banks = len(header) - 2
    matrix = {"access": [], "conflict": []}
    totals = None
    for i, row in body_rows(path, table, header, 1):
        values = ints(path, i, row[2:])
        if row[0] in matrix:
            matrix[row[0]].append(values)
        elif row[0] == "bankAccesses":
            totals = values
        else:
            fail(f"{path}: line {i} has unknown row kind '{row[0]}'")
    if totals is None:
        fail(f"{path}: missing bankAccesses row")
    access, conflict = matrix["access"], matrix["conflict"]
    if len(access) != len(conflict):
        fail(f"{path}: access/conflict matrices differ in height")
    for b in range(banks):
        col = sum(row[b] for row in access)
        if col != totals[b]:
            fail(f"{path}: bank {b} access column sums to {col}, "
                 f"bank counted {totals[b]}")
    for q, (acc, conf) in enumerate(zip(access, conflict)):
        for b in range(banks):
            if conf[b] > acc[b]:
                fail(f"{path}: quad {q} bank {b} has more conflicts "
                     f"than accesses")
    print(f"{path}: ok ({len(access)} quads x {banks} banks, "
          f"{sum(totals)} bank accesses)")


def report_prof(doc, top):
    total = doc["samples"]
    print(f"profile: {doc['cycles']} cycles, {total} samples "
          f"(interval {doc['profInterval']}), "
          f"{len(doc['threads'])} sampled threads")
    print(f"\ntop {top} symbols:")
    print(f"  {'symbol':<24} {'samples':>10} {'pct':>7}")
    for s in doc["symbols"][:top]:
        print(f"  {s['symbol']:<24} {s['samples']:>10} "
              f"{s['pct']:>6.2f}%")
    banks = doc["banks"]
    total_acc = sum(b["accesses"] for b in banks)
    busy = sum(b["busyCycles"] for b in banks)
    queue = sum(b["queueCycles"] for b in banks)
    used = sum(1 for b in banks if b["accesses"] > 0)
    print(f"\nbank utilization: {used}/{len(banks)} banks used, "
          f"{total_acc} accesses, {busy} busy cycles, "
          f"{queue} queue cycles")
    if total_acc:
        hottest = max(banks, key=lambda b: b["accesses"])
        mean = total_acc / len(banks)
        print(f"  hottest bank {hottest['bank']}: "
              f"{hottest['accesses']} accesses "
              f"({hottest['accesses'] / mean:.2f}x the mean)")
    print("\nig class hit rates:")
    for c in doc["igClasses"]:
        if c["accesses"] == 0:
            continue
        lookups = c["hits"] + c["misses"]
        rate = 100.0 * c["hits"] / lookups if lookups else 0.0
        print(f"  {c['class']:<8} {c['accesses']:>10} accesses "
              f"{rate:>6.2f}% hit")


def check_prof(base, report, top):
    """A --prof-out run's three files: BASE (JSON), BASE.folded and
    BASE.heatmap.csv. Per-thread samples and folded weights sum to the
    total; every access-matrix column sums to the bank's own count."""
    doc = check_prof_json(base)
    check_folded(base + ".folded", doc["samples"])
    check_bank_heatmap(base + ".heatmap.csv")
    if report:
        report_prof(doc, top)


# --- faultcamp -------------------------------------------------------

OUTCOMES = ("masked", "detected", "sdc", "crash", "hang")
KIND_FIELDS = {
    "register": ("thread", "reg", "bit"),
    "memory": ("addr", "bit"),
    "cacheLine": ("cache", "line"),
    "link": ("linkSrc", "linkDst", "ppm", "escapePpm"),
}


def check_injection(where, inj, campaign_kind):
    require(inj, ("iter", "seed", "kind", "cycle", "outcome", "cycles"),
            where)
    kind, outcome = inj["kind"], inj["outcome"]
    if kind not in KIND_FIELDS:
        fail(f"{where}: unknown kind '{kind}'")
    if campaign_kind != "mixed" and kind != campaign_kind:
        fail(f"{where}: kind '{kind}' in a '{campaign_kind}'-only "
             f"campaign")
    if outcome not in OUTCOMES:
        fail(f"{where}: unknown outcome '{outcome}'")
    if not isinstance(inj["cycle"], int) or inj["cycle"] < 1:
        fail(f"{where}: injection cycle must be a positive integer")
    require(inj, KIND_FIELDS[kind], f"{where}: {kind} fault")
    for field in KIND_FIELDS[kind]:
        if not isinstance(inj[field], int) or inj[field] < 0:
            fail(f"{where}: field '{field}' must be a nonneg integer")
    if kind == "register" and not 1 <= inj["reg"] <= 63:
        fail(f"{where}: register {inj['reg']} out of range 1..63")
    # Caches are timing directories (functional data lives in flat
    # DRAM), so a cache-line fault is architecturally inert.
    if kind == "cacheLine" and outcome != "masked":
        fail(f"{where}: cache-line fault classified '{outcome}' "
             "(timing-only faults must be masked)")
    if kind == "link":
        if inj["linkSrc"] == inj["linkDst"]:
            fail(f"{where}: link fault is self-addressed")
        if inj["ppm"] > 1_000_000 or inj["escapePpm"] > 1_000_000:
            fail(f"{where}: link probabilities exceed 1e6 ppm")
        # Only a checksum escape can corrupt data silently.
        if inj["ppm"] == 0 and inj["escapePpm"] == 0 and outcome == "sdc":
            fail(f"{where}: dead link classified 'sdc' (a dead link "
                 "cannot corrupt data silently)")
    if outcome in ("detected", "crash") and not inj.get("detail"):
        fail(f"{where}: outcome '{outcome}' has no detail")


def check_faultcamp(path):
    """A cyclops-faultcamp-v1 report: iterations 0..N-1 in order, each
    in one outcome class with its kind's target fields, and counts that
    sum to N and match the injection list."""
    camp = load_json(path, schema="cyclops-faultcamp-v1",
                     keys=("campaign", "counts", "injections"))
    meta = camp["campaign"]
    require(meta, ("seed", "iterations", "threads", "bodyOps",
                   "maxCycles", "watchdogCycles", "kind"),
            f"{path}: campaign header")
    if meta["kind"] not in (*KIND_FIELDS, "mixed"):
        fail(f"{path}: campaign header kind {meta['kind']!r} unknown")
    injections = camp["injections"]
    if len(injections) != meta["iterations"]:
        fail(f"{path}: {len(injections)} injections but "
             f"{meta['iterations']} iterations")
    tally = dict.fromkeys(OUTCOMES, 0)
    for i, inj in enumerate(injections):
        check_injection(f"{path}: injection {i}", inj, meta["kind"])
        if inj["iter"] != i:
            fail(f"{path}: injection {i}: iter {inj['iter']} out of order")
        tally[inj["outcome"]] += 1
    counts = camp["counts"]
    if set(counts) != set(OUTCOMES):
        fail(f"{path}: counts keys {sorted(counts)} != {sorted(OUTCOMES)}")
    if counts != tally:
        fail(f"{path}: counts {counts} disagree with injection list "
             f"{tally}")
    if sum(counts.values()) != meta["iterations"]:
        fail(f"{path}: counts do not sum to the iteration count")
    print(f"{path}: ok ({meta['iterations']} injections, " +
          " ".join(f"{k}={v}" for k, v in counts.items()) + ")")


# --- golden ----------------------------------------------------------

# A numeric cell passes when |actual - golden| <= max(ABS_TOL,
# REL_TOL * |golden|). The band absorbs the one-decimal rounding of
# derived speedups and percentages; raw cycle counts are exact in a
# deterministic simulator but share it, so a timing-model change shows
# up as a reviewable golden update rather than CI noise.
ABS_TOL = 2.0
REL_TOL = 0.05


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def check_golden(golden_path, actual_path):
    """Structure (line count, column count, non-numeric cells) matches
    exactly; numeric cells within the tolerance band."""
    golden, actual = read_csv(golden_path), read_csv(actual_path)
    errors = []
    if len(golden) != len(actual):
        errors.append(f"line count differs: golden {len(golden)}, "
                      f"actual {len(actual)}")
    for lineno, (gcells, acells) in enumerate(zip(golden, actual), 1):
        if len(gcells) != len(acells):
            errors.append(f"line {lineno}: column count differs")
            continue
        for col, (gc, ac) in enumerate(zip(gcells, acells), start=1):
            gnum, anum = number(gc), number(ac)
            if gnum is None or anum is None:
                if gc.strip() != ac.strip():
                    errors.append(f"line {lineno} col {col}: "
                                  f"'{ac}' != '{gc}'")
                continue
            tol = max(ABS_TOL, REL_TOL * abs(gnum))
            if abs(anum - gnum) > tol:
                errors.append(f"line {lineno} col {col}: {anum} vs "
                              f"golden {gnum} (tol {tol:.3g})")
    if errors:
        more = [f"... and {len(errors) - 20} more"] if len(errors) > 20 \
            else []
        fail(f"{actual_path} diverges from {golden_path}:\n  " +
             "\n  ".join(errors[:20] + more))
    print(f"{actual_path}: matches golden within tolerance")


def check_manifest(path):
    load_json(path, schema="cyclops-manifest-v1")
    print(f"{path}: ok")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("trace", help="Chrome-trace JSON (--trace-out)")
    p.add_argument("files", nargs="+")
    p.add_argument("--expect-chips", type=int, default=0,
                   help="require N chip processes (pids 10..10+N-1)")
    p.add_argument("--expect-links", type=int, default=0,
                   help="require the fabric process with N link tracks")
    for kind, what in (("stats", "stats JSON (--stats-json)"),
                       ("series", "epoch-series CSV (--stats-csv)"),
                       ("faultcamp", "cyclops-faultcamp report"),
                       ("manifest", "run manifest (--manifest)")):
        sub.add_parser(kind, help=what).add_argument("files", nargs="+")
    p = sub.add_parser("fabric", help="fabric stats JSON (--fabric-stats)")
    p.add_argument("file")
    p.add_argument("--heatmap", help="its --fabric-heatmap CSV")
    p.add_argument("--expect-links", type=int, default=0,
                   help="require exactly N directed links")
    p = sub.add_parser("prof", help="PC profile BASE, BASE.folded and "
                                    "BASE.heatmap.csv (--prof-out)")
    p.add_argument("files", nargs="+", metavar="BASE")
    p.add_argument("--report", action="store_true",
                   help="also print top symbols and bank utilization")
    p.add_argument("--top", type=int, default=10,
                   help="symbols in the report (default 10)")
    p = sub.add_parser("golden", help="bench CSV against its golden")
    p.add_argument("golden")
    p.add_argument("actual")
    args = parser.parse_args()

    if args.kind == "fabric":
        doc = check_fabric(args.file, args.expect_links)
        if args.heatmap:
            check_fabric_heatmap(args.heatmap, doc)
    elif args.kind == "golden":
        check_golden(args.golden, args.actual)
    for path in getattr(args, "files", []):
        if args.kind == "trace":
            check_trace(path, args.expect_chips, args.expect_links)
        elif args.kind == "stats":
            check_stats(path)
        elif args.kind == "series":
            check_series(path)
        elif args.kind == "prof":
            check_prof(path, args.report, args.top)
        elif args.kind == "faultcamp":
            check_faultcamp(path)
        else:
            check_manifest(path)


if __name__ == "__main__":
    main()
