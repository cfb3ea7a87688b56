#!/usr/bin/env python3
"""perfbench: end-to-end and layer-attributed benchmark of hetarch.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload surface-sweep --seed 2023 --seconds 20 --trace 0

It builds the hetarch binary and the replay driver (perfbench/replay) with
dune, runs one workload, checks every output, prints one line per metric,
and ends with one JSON line {"correct", "attempted", "failed", "metrics"}.

  --trace 0  end-to-end metrics, from the real binary run as subprocesses
             (the serve workload over its socket) with tracing off.
  --trace 1  per-layer metrics, from an in-process replay of the same
             workload, seed and inputs through each layer's public
             functions at --jobs 1, with an explicit unattributed row.

Workloads, metrics and seeds are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 2023
# Perf claims are confirmed on this seed, which is never used while a
# change is written or tuned.
HOLDOUT_SEED = 7919

HETARCH = os.path.join("_build", "default", "bin", "main.exe")
REPLAY = os.path.join("_build", "default", "perfbench", "replay", "replay.exe")
WORK = ".perfbench_work"
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")

# Set-ups timed before every pass (batch) or session (serve).  Launch times
# on a shared machine drift from second to second, so the samples are
# spread over the whole run rather than taken at its start.
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120.0

# Batch workloads: (command, arguments, gets a fresh empty --cache-dir).
FIG6_SHOTS = 512
MODULE_SHOTS = 500
BATCH = {
    "surface-sweep": [("fig6", ["--shots", str(FIG6_SHOTS)], True)],
    "module-sweep": [
        ("table3", ["--shots", str(MODULE_SHOTS)], False),
        ("table4", ["--shots", str(MODULE_SHOTS)], False),
        ("fig4", [], False),
    ],
}

# serve-mixed: two client connections; phase-1 schedule length per
# connection, Zipf exponent of the repeats, and how many restarts on the
# same store phase 2 makes.
SERVE_REQUESTS_PER_CONN = 6000
ZIPF_S = 1.1
DISK_ROUNDS = 3

LAYERS = [
    "qec.build", "pauli.sample", "qec.decode", "uec.profile.het",
    "uec.profile.hom", "uec.sample", "qec.pseudothreshold", "teleport.point",
    "distill.run", "cell.characterize", "serve.parse", "serve.warm",
    "serve.compute", "serve.cache_write",
]

ENV = {k: v for k, v in os.environ.items() if not k.startswith("HETARCH_")}
ENV["DUNE_CACHE"] = "disabled"

LIVE = []  # daemons not yet reaped


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/main.exe", "./perfbench/replay/replay.exe"],
            env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
        fail("build failed; run from the root of a hetarch source checkout")


def vm_hwm_mb(pid):
    """Peak resident set of a running process so far, from /proc.  (The
    ru_maxrss that wait4 reports is no substitute: a child spawned by
    vfork inherits this process's own high-water mark at exec.)"""
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def wait_child(p, timeout=CHILD_TIMEOUT_S):
    """Wait for p to exit, polling its VmHWM meanwhile; (exit code, peak
    RSS MB)."""
    deadline = time.monotonic() + timeout
    peak = 0.0
    while p.poll() is None:
        peak = max(peak, vm_hwm_mb(p.pid))
        if time.monotonic() > deadline:
            p.kill()
            p.wait()
            break
        time.sleep(0.005)
    if p in LIVE:
        LIVE.remove(p)
    return p.returncode, peak


def run_proc(argv, tag):
    """Run one child to exit: (exit code, wall s, peak RSS MB, stdout)."""
    out_path = os.path.join(WORK, tag + ".out")
    with open(out_path, "wb") as out, open(os.path.join(WORK, tag + ".err"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV)
        code, rss = wait_child(p)
        wall = time.perf_counter() - t0
    with open(out_path, "rb") as f:
        return code, wall, rss, f.read()


def replay(args, tag):
    code, _, _, out = run_proc([REPLAY] + args, tag)
    if code != 0:
        return None
    return json.loads(out.decode().strip().splitlines()[-1])


def pct(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def pinned(workload, seed):
    with open(PINNED) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def sha(data):
    return hashlib.sha256(data).hexdigest()


class Run:
    """Attempted/failed operation counts and the checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


# ------------------------------------------------------------ traced replay

def merge(docs):
    """Sum the replay documents of one workload pass."""
    layers = {}
    counters = {}
    for d in docs:
        for name, r in d["layers"].items():
            if name not in LAYERS:
                fail("replay timed an unknown layer %r" % name)
            acc = layers.setdefault(name, {"calls": 0, "ns": 0, "words": 0.0})
            for k in acc:
                acc[k] += r[k]
        for k, v in d["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return {
        "layers": layers,
        "counters": counters,
        "wall_ns": sum(d["wall_ns"] for d in docs),
        "gaps_ns": sum(d["gaps_ns"] for d in docs),
    }


def reconciles(m):
    """Layer self times plus the untimed gaps must equal the traced wall
    to within 1%; overlapping or double-counted timers break this."""
    attributed = sum(r["ns"] for r in m["layers"].values())
    return abs(attributed + m["gaps_ns"] - m["wall_ns"]) <= 0.01 * m["wall_ns"]


def layer_metrics(passes):
    """Per-layer metrics: medians over the replay passes of one run."""
    zero = {"calls": 0, "ns": 0, "words": 0.0}
    med = statistics.median
    out = {}
    for layer in LAYERS:
        rows = [p["layers"].get(layer, zero) for p in passes]
        out[layer + ".calls"] = (rows[0]["calls"], "count")
        out[layer + ".self_ms"] = (med(r["ns"] for r in rows) / 1e6, "ms")
        out[layer + ".mwords"] = (med(r["words"] for r in rows) / 1e6, "Mwords")
    unattributed = [p["wall_ns"] - sum(r["ns"] for r in p["layers"].values()) for p in passes]
    out["unattributed.self_ms"] = (med(unattributed) / 1e6, "ms")
    out["unattributed.share"] = (med(u / p["wall_ns"] for u, p in zip(unattributed, passes)), "ratio")
    out["trace.wall_ms"] = (med(p["wall_ns"] for p in passes) / 1e6, "ms")

    def rate(p):
        ns = p["layers"].get("pauli.sample", zero)["ns"]
        return p["counters"]["shots_sampled"] / (ns / 1e9) if ns else 0.0

    def hit_ratio(p):
        c = p["counters"]
        hits = c["qec.dem_store_hits_total"]
        lookups = hits + c["qec.dem_store_misses_total"]
        return hits / lookups if lookups else 0.0

    def warm_ratio(p):
        c = p["counters"]
        return c["warm_hits"] / c["queries"] if c["queries"] else 0.0

    out["pauli.sample.shots_per_s"] = (med(rate(p) for p in passes), "1/s")
    out["dse.dem_store_hit_ratio"] = (med(hit_ratio(p) for p in passes), "ratio")
    out["serve.warm_hit_ratio"] = (med(warm_ratio(p) for p in passes), "ratio")
    return out


# --------------------------------------------------------- batch workloads

def table_rows(stdout):
    """Cells of the first aligned table in a command's stdout: the rows
    after the rule line, up to the first blank line."""
    lines = stdout.decode(errors="replace").splitlines()
    for i, line in enumerate(lines):
        if "-" in line and set(line) <= {"-", " "}:
            rows = []
            for row in lines[i + 1:]:
                if not row.strip():
                    break
                rows.append(row.split())
            return rows
    return []


def batch_argv(name, args, seed, jobs, cache):
    argv = [HETARCH, name] + args + ["--seed", str(seed), "--jobs", str(jobs)]
    return argv + (["--cache-dir", cache] if cache else [])


def batch_iteration(run, workload, seed, jobs, k, digests):
    """One pass over the workload's commands, launch of the first to exit of
    the last.  Returns (wall s, peak RSS MB, command latencies, stdouts)."""
    cmds = BATCH[workload]
    caches = [fresh_dir("cache-%d-%d" % (k, i)) if c else None for i, (_, _, c) in enumerate(cmds)]
    latencies, rss, stdouts = [], [], {}
    t0 = time.perf_counter()
    for (name, args, _), cache in zip(cmds, caches):
        code, wall, peak, out = run_proc(batch_argv(name, args, seed, jobs, cache), "%s-%d" % (name, k))
        digest = digests.setdefault(name, sha(out))
        run.op(code == 0 and digest == sha(out),
               "%s: exit %d, stdout digest %s vs first run %s" % (name, code, sha(out)[:12], digest[:12]))
        latencies.append(wall)
        rss.append(peak)
        stdouts[name] = out
    wall = time.perf_counter() - t0
    for cache in caches:
        if cache:
            shutil.rmtree(cache, ignore_errors=True)
    return wall, max(rss), latencies, stdouts


def batch_replay(workload, seed, k):
    docs = []
    for i, (name, args, uses_cache) in enumerate(BATCH[workload]):
        cache = ["--cache-dir", fresh_dir("replay-cache-%d-%d" % (k, i))] if uses_cache else []
        doc = replay([name] + args + ["--seed", str(seed)] + cache, "replay-%s-%d" % (name, k))
        if doc is None:
            return None
        docs.append(doc)
    return docs


def reconcile_rows(run, workload, docs, stdouts):
    """The replay's result cells (error rates computed through the layers'
    public functions) must equal the table the CLI printed."""
    for (name, _, _), doc in zip(BATCH[workload], docs):
        expected = doc["rows"]
        printed = table_rows(stdouts[name])[:len(expected)]
        run.check(printed == expected, "%s: CLI table differs from the replay's values" % name)


# The two sweeps must stress disjoint layer sets: neither the layers the
# other times nor the work counters those layers keep may move.
UNTOUCHED = {
    "surface-sweep": (["uec.profile.het", "uec.profile.hom", "uec.sample", "distill.run",
                       "teleport.point", "qec.pseudothreshold"],
                      ["uec.shots_total", "des.events_total"]),
    "module-sweep": (["qec.build", "pauli.sample", "qec.decode"],
                     ["qec.uf_decode_shots_total", "qec.dem_store_hits_total",
                      "qec.dem_store_misses_total"]),
}


def check_untouched(run, workload, m):
    layers, counters = UNTOUCHED[workload]
    for layer in layers:
        run.check(layer not in m["layers"], "%s called %s" % (workload, layer))
    for counter in counters:
        run.check(m["counters"][counter] == 0, "%s moved %s" % (workload, counter))


def batch_setup(run, setup):
    """Set-up: a fresh work tree and the first launch of the binary.  A
    blocking wait, not wait_child: its poll step would dominate."""
    t0 = time.perf_counter()
    path = fresh_dir("setup-%d" % len(setup))
    with open(os.path.join(path, "devices.out"), "wb") as out:
        code = subprocess.call([HETARCH, "devices"], stdout=out, env=ENV)
    setup.append(time.perf_counter() - t0)
    run.check(code == 0, "hetarch devices exited %d" % code)


def run_batch(workload, seed, seconds, trace):
    run = Run()
    setup = []
    digests = {}
    iterations = []
    t_start = time.perf_counter()
    # The traced run launches the CLI once, at --jobs 1 like the replay, for
    # reconciliation and as the untraced side of the tracing overhead.
    while (len(iterations) < (1 if trace else MIN_ITERATIONS)
           or (not trace and time.perf_counter() - t_start < seconds)):
        for _ in range(SETUP_REPEATS):
            batch_setup(run, setup)
        iterations.append(batch_iteration(run, workload, seed, 1 if trace else 2,
                                          len(iterations), digests))
    stdouts = iterations[0][3]

    pins = pinned(workload, seed)
    if pins:
        for name, digest in digests.items():
            run.check(pins.get(name) == digest, "%s: stdout digest differs from the pinned one" % name)

    passes = []
    t_replay = time.perf_counter()
    while not passes or (trace and time.perf_counter() - t_replay < seconds):
        docs = batch_replay(workload, seed, len(passes))
        if docs is None:
            run.check(False, "replay failed")
            break
        m = merge(docs)
        if not passes:
            reconcile_rows(run, workload, docs, stdouts)
            check_untouched(run, workload, m)
        run.check(reconciles(m), "layer self times do not add up to the traced wall")
        passes.append(m)

    walls = [it[0] for it in iterations]
    info = {
        "iterations": len(iterations),
        "setup_s samples": ", ".join("%.4f" % s for s in setup),
        "wall_s samples": ", ".join("%.3f" % w for w in walls),
    }
    if trace:
        if not passes:
            return run, {}, info
        metrics = layer_metrics(passes)
        metrics["trace.untraced_wall_ms"] = (walls[0] * 1e3, "ms")
        metrics["trace.overhead"] = (metrics["trace.wall_ms"][0] / (walls[0] * 1e3), "ratio")
        metrics.update(serve_layer_zeros())
        return run, metrics, info
    latencies = [lat for it in iterations for lat in it[2]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(it[1] for it in iterations), "MB"),
        "requests_per_s": (len(latencies) / sum(walls), "1/s"),
        "cold_mean_ms": (statistics.mean(latencies) * 1e3, "ms"),
    }
    return run, metrics, info


def serve_layer_zeros():
    return {name: (0, unit) for name, unit in SERVE_ONLY_LAYER_METRICS}


SERVE_ONLY_LAYER_METRICS = [
    ("serve.transport.calls", "count"), ("serve.transport.self_ms", "ms"),
    ("serve.coalesced", "count"), ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p99_ms", "ms"), ("serve.disk_p50_ms", "ms"),
]


# ------------------------------------------------------------- serve-mixed

def universe(seed):
    """The unique queries: every kind, with the workload seed as the
    sampling seed and seeded coherence scalings for the dse kind."""
    rng = random.Random(seed)
    qs = []
    for d in (3, 5):
        qs.append({"kind": "threshold", "distance": d, "shots": 1024, "seed": seed})
    for code in ("ST", "SC3", "17QCC", "RM"):
        for arch in ("het", "hom"):
            qs.append({"kind": "uec", "code": code, "arch": arch, "shots": 1024, "seed": seed})
    for arch in ("het", "hom"):
        qs.append({"kind": "distill", "arch": arch, "shots": 256, "seed": seed})
    for op in ("load", "retention", "seq_cnots", "stabilizer"):
        for alpha in sorted(rng.sample(range(2, 41), 3)):
            qs.append({"kind": "dse", "op": op, "alpha": alpha / 4})
    return [json.dumps(q, separators=(",", ":")).encode() for q in qs]


def schedule(seed, uniques):
    """The two connections' request lists for phase 1.  A warm-up prefix
    sends every query once, dealt across the connections in a fixed order;
    every third prefix slot sends the same query on both, so the duplicate
    arrives while the first is computing (single-flight).  Then Zipf-skewed
    repeats over a seeded popularity order.  The prefix is fixed so that
    which computations overlap, and so the cold latencies, do not depend on
    the seed."""
    rng = random.Random(seed * 7 + 1)
    n = len(uniques)
    a, b = [], []
    for i in range(0, n - 1, 2):
        a.append(i)
        b.append(i if (i // 2) % 3 == 0 else i + 1)
    b += [i + 1 for i in range(0, n - 1, 2) if (i // 2) % 3 == 0]
    rank = list(range(n))
    rng.shuffle(rank)
    weights = [1.0 / (rank[q] + 1) ** ZIPF_S for q in range(n)]
    lists = [prefix + rng.choices(range(n), weights, k=SERVE_REQUESTS_PER_CONN - len(prefix))
             for prefix in (a, b)]
    return [[uniques[q] for q in lst] for lst in lists]


def control(path, kind):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(30)
        s.connect(path)
        s.sendall(json.dumps({"kind": kind}).encode() + b"\n")
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the control connection")
            buf += chunk
        return json.loads(buf.split(b"\n", 1)[0])


def spawn_daemon(cache, sock, tag):
    """Start hetarch serve; returns (process, seconds from spawn until the
    first ping reply)."""
    t0 = time.perf_counter()
    with open(os.path.join(WORK, tag + ".err"), "wb") as err:
        p = subprocess.Popen(
            [HETARCH, "serve", "--socket", sock, "--cache-dir", cache, "--jobs", "1"],
            stdout=subprocess.DEVNULL, stderr=err, env=ENV)
    LIVE.append(p)
    while True:
        try:
            reply = control(sock, "ping")
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if p.poll() is not None or time.perf_counter() - t0 > 30:
                raise RuntimeError("hetarch serve did not answer ping")
            # Fine-grained, so the poll step does not quantize setup_s.
            time.sleep(0.0001)
    if reply.get("ok") is not True:
        raise RuntimeError("bad ping reply %r" % reply)
    return p, time.perf_counter() - t0


def stop_daemon(p, sock):
    """Shut the daemon down over its socket; (exit code, peak RSS MB).  The
    daemon is idle here, so its VmHWM already holds its peak."""
    peak = vm_hwm_mb(p.pid)
    try:
        control(sock, "shutdown")
    except OSError:
        p.terminate()
    code, polled = wait_child(p, timeout=30)
    return code, max(peak, polled)


def drive(path, lists, timeout=60.0):
    """Closed loop: each connection sends its next line only once the reply
    to its previous one has arrived.  Returns one record per request:
    (connection, index, line, sent ns, reply ns, body)."""
    sel = selectors.DefaultSelector()
    conns = []
    records = []
    try:
        for c, lines in enumerate(lists):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conns.append(s)
            s.connect(path)
            state = {"c": c, "lines": lines, "i": 0, "buf": b"", "sent": 0}
            sel.register(s, selectors.EVENT_READ, state)
            state["sent"] = time.perf_counter_ns()
            s.sendall(lines[0] + b"\n")
        live = len(lists)
        while live:
            events = sel.select(timeout)
            if not events:
                raise TimeoutError("no reply within %gs" % timeout)
            for key, _ in events:
                st = key.data
                chunk = key.fileobj.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("daemon closed a client connection")
                st["buf"] += chunk
                while b"\n" in st["buf"]:
                    body, st["buf"] = st["buf"].split(b"\n", 1)
                    now = time.perf_counter_ns()
                    i = st["i"]
                    records.append((st["c"], i, st["lines"][i], st["sent"], now, body))
                    st["i"] = i + 1
                    if st["i"] < len(st["lines"]):
                        st["sent"] = time.perf_counter_ns()
                        key.fileobj.sendall(st["lines"][st["i"]] + b"\n")
                    else:
                        live -= 1
                        sel.unregister(key.fileobj)
    finally:
        for s in conns:
            s.close()
        sel.close()
    return records


def classify(records):
    """Cold: sent before the first reply for its query arrived (the first
    send, and duplicates that coalesced onto it).  Warm: everything else."""
    first = {}
    for _, _, line, _, recv, _ in records:
        first[line] = min(first.get(line, recv), recv)
    cold, warm = [], []
    for r in records:
        (cold if r[3] < first[r[2]] else warm).append(r)
    return cold, warm


def check_bodies(run, records, bodies):
    """Every reply is an answer (no error, 429 or 500) and byte-identical to
    every other reply for the same query."""
    for _, _, line, _, _, body in records:
        ok = not body.startswith(b'{"schema":"hetarch.serve/1","error"')
        ref = bodies.setdefault(line, body)
        run.op(ok and body == ref, "reply to %s: %s" % (line.decode(), body[:120].decode(errors="replace")))


def serve_session(run, k, uniques, lists, rounds, bodies):
    """Phase 1 on a fresh store, then `rounds` restarts on the same store,
    each sending every unique query once (all disk hits)."""
    cache = fresh_dir("serve-cache-%d" % k)
    sock = os.path.join(WORK, "s%d.sock" % k)
    p, _ = spawn_daemon(cache, sock, "serve-%d" % k)
    records = drive(sock, lists)
    stats = control(sock, "stats")["counters"]
    code, rss = stop_daemon(p, sock)
    run.check(code == 0, "daemon exited %d" % code)
    run.check(stats["serve.computed_total"] == len(uniques),
              "phase 1 computed %d answers for %d unique queries"
              % (stats["serve.computed_total"], len(uniques)))
    check_bodies(run, records, bodies)
    sent = min(r[3] for r in records)
    wall = (max(r[4] for r in records) - sent) / 1e9
    disk = []
    peak = rss
    for j in range(rounds):
        order = uniques[:]
        random.Random(k * 1000 + j).shuffle(order)
        p, _ = spawn_daemon(cache, sock, "serve-%d-%d" % (k, j))
        recs = drive(sock, [order[0::2], order[1::2]])
        disk_hits = control(sock, "stats")["counters"]["serve.warm_disk_hits_total"]
        code, rss = stop_daemon(p, sock)
        run.check(code == 0 and disk_hits == len(uniques),
                  "phase 2: exit %d, %d disk hits for %d queries" % (code, disk_hits, len(uniques)))
        check_bodies(run, recs, bodies)
        disk += recs
        peak = max(peak, rss)
    cold, warm = classify(records)
    shutil.rmtree(cache, ignore_errors=True)
    return {"records": records, "cold": cold, "warm": warm, "disk": disk, "wall": wall,
            "rss": peak, "coalesced": stats["serve.coalesced_total"]}


def ms(records):
    return [(r[4] - r[3]) / 1e6 for r in records]


def write_lines(name, lines):
    path = os.path.join(WORK, name)
    with open(path, "wb") as f:
        f.write(b"".join(line + b"\n" for line in lines))
    return path


def interleave(lists):
    """Phase-1 lines in one sequence, alternating connections, with each
    (connection, index) mapped to its position."""
    seq, pos = [], {}
    for i in range(max(len(lst) for lst in lists)):
        for c, lst in enumerate(lists):
            if i < len(lst):
                pos[(c, i)] = len(seq)
                seq.append(lst[i])
    return seq, pos


def serve_replay(k, seq, uniques):
    """Replay phase 1 in one process and phase 2 (a restart on the same
    store) in a second, as the daemon runs them."""
    cache = fresh_dir("replay-serve-%d" % k)
    docs = []
    for phase, lines in (("1", seq), ("2", uniques)):
        doc = replay(["serve", "--requests", write_lines("replay-%d-%s.jsonl" % (k, phase), lines),
                      "--cache-dir", cache], "replay-serve-%d-%s" % (k, phase))
        if doc is None:
            return None
        docs.append(doc)
    return docs


def check_reference(run, bodies, reference):
    """Daemon answers must be byte-identical to Serve.compute_answer run
    in-process for the same query."""
    for line, body in bodies.items():
        ref = reference.get(line.decode())
        run.check(ref is not None and ref.encode() == body,
                  "daemon answer to %s differs from the in-process answer" % line.decode())


def run_serve(seed, seconds, trace):
    run = Run()
    uniques = universe(seed)
    lists = schedule(seed, uniques)
    setup = []
    try:
        bodies = {}
        sessions = []
        t_start = time.perf_counter()
        while (len(sessions) < (1 if trace else 2)
               or (not trace and time.perf_counter() - t_start < seconds)):
            for _ in range(SETUP_REPEATS):
                i = len(setup)
                t0 = time.perf_counter()
                cache = fresh_dir("setup-%d" % i)
                sock = os.path.join(WORK, "setup%d.sock" % i)
                p, _ = spawn_daemon(cache, sock, "setup-%d" % i)
                setup.append(time.perf_counter() - t0)
                stop_daemon(p, sock)
            sessions.append(serve_session(run, len(sessions), uniques, lists,
                                          1 if trace else DISK_ROUNDS, bodies))
    except (OSError, RuntimeError, TimeoutError) as e:
        run.op(False, "serve session: %s" % e)
        return run, {}, {}

    pins = pinned("serve-mixed", seed)
    digest = sha(b"".join(line + b"\n" + bodies[line] + b"\n" for line in sorted(bodies)))
    if pins:
        run.check(pins.get("bodies") == digest, "serve answers differ from the pinned digest")

    seq, pos = interleave(lists)
    passes = []
    t_replay = time.perf_counter()
    while not passes or (trace and time.perf_counter() - t_replay < seconds):
        docs = serve_replay(len(passes), seq if trace else uniques, uniques)
        if docs is None:
            run.check(False, "replay failed")
            break
        if not passes:
            check_reference(run, bodies, docs[0]["bodies"])
        m = merge(docs)
        run.check(reconciles(m), "layer self times do not add up to the traced wall")
        passes.append((m, docs[0]["request_ns"]))

    cold = [x for s in sessions for x in ms(s["cold"])]
    warm = [x for s in sessions for x in ms(s["warm"])]
    disk = [x for s in sessions for x in ms(s["disk"])]
    walls = [s["wall"] for s in sessions]
    n_requests = sum(len(lst) for lst in lists)
    info = {
        "sessions": len(sessions),
        "setup_s samples": ", ".join("%.4f" % s for s in setup),
        "wall_s samples": ", ".join("%.3f" % w for w in walls),
        "peak_rss_mb samples": ", ".join("%.1f" % s["rss"] for s in sessions),
        "requests (cold/warm/disk)": "%d/%d/%d" % (len(cold), len(warm), len(disk)),
        "warm_p50_ms": "%.4f" % statistics.median(warm),
        "warm_p99_ms": "%.4f" % pct(warm, 0.99),
        "disk_p50_ms": "%.4f" % statistics.median(disk),
        "coalesced": ", ".join(str(s["coalesced"]) for s in sessions),
    }
    if trace:
        if not passes:
            return run, {}, info
        metrics = layer_metrics([m for m, _ in passes])
        s = sessions[0]
        request_ns = passes[0][1]
        transport = [(r[4] - r[3]) - request_ns[pos[(r[0], r[1])]] for r in s["warm"]]
        metrics.update({
            "serve.transport.calls": (len(transport), "count"),
            "serve.transport.self_ms": (len(transport) * statistics.median(transport) / 1e6, "ms"),
            "serve.coalesced": (s["coalesced"], "count"),
            "serve.warm_p50_ms": (statistics.median(ms(s["warm"])), "ms"),
            "serve.warm_p99_ms": (pct(ms(s["warm"]), 0.99), "ms"),
            "serve.disk_p50_ms": (statistics.median(ms(s["disk"])), "ms"),
            "trace.untraced_wall_ms": (s["wall"] * 1e3, "ms"),
            "trace.overhead": (metrics["trace.wall_ms"][0] / (s["wall"] * 1e3), "ratio"),
        })
        return run, metrics, info
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(s["rss"] for s in sessions), "MB"),
        "requests_per_s": (statistics.median(n_requests / w for w in walls), "1/s"),
        "cold_mean_ms": (statistics.mean(cold), "ms"),
    }
    return run, metrics, info


# -------------------------------------------------------------------- main

WORKLOADS = ["surface-sweep", "module-sweep", "serve-mixed"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        if args.workload == "serve-mixed":
            run, metrics, info = run_serve(args.seed, args.seconds, args.trace == 1)
        else:
            run, metrics, info = run_batch(args.workload, args.seed, args.seconds, args.trace == 1)
    finally:
        for p in list(LIVE):
            p.kill()
            wait_child(p)
        shutil.rmtree(WORK, ignore_errors=True)

    for k, v in info.items():
        print("# %s: %s" % (k, v))
    print("# failed_frac: %.6g (%d of %d operations)"
          % (run.failed / max(1, run.attempted), run.failed, run.attempted))
    for p in run.problems[:20]:
        print("# FAILED: " + p)
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    correct = not run.problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
