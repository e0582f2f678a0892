#!/usr/bin/env python3
"""seqver benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a seqver checkout.  The run builds `seqver` and the
benchmark's own tracer from source (release profile, build tree under
.perfbench/), generates its inputs from the seed, gives them to the real
program, checks every verdict, and prints as its last stdout line one
JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of a timed run; with
--trace 1 they are the per-layer ones of a separate traced run.  A
human-readable report goes to stderr and every run is appended to
.perfbench/history.jsonl.  README.md in this directory describes the
workloads and metrics.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib as bl  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(WORK, "build")
SEQVER = os.path.join(BUILD, "default", "bin", "seqver.exe")
PBENCH = os.path.join(BUILD, "default", "perfbench", "tracer", "pbench.exe")
HISTORY = os.path.join(WORK, "history.jsonl")

# A single submission that runs longer than this is killed and counted as
# failed, so a hung process cannot push the run past its time limit.
PAIR_TIMEOUT = 90.0

# The children see neither override: the benchmark fixes jobs and
# speculation itself.
ENV = {k: v for k, v in os.environ.items() if k not in ("SEQVER_JOBS", "SEQVER_SPECULATE")}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


# --- workloads --------------------------------------------------------------
#
# A workload is a cycle of (circuit, count) entries.  A run measures whole
# cycles, as many as --seconds buys at the nominal cycle time, so every
# run of a workload has the same composition and sample count.
#
# Implementations form a fixed corpus: the j-th occurrence of a circuit in
# a run is its retime+opt implementation with seed j+1.  Verification time
# depends strongly on that seed (tx/sat 0.38-1.52 s, lfsr16/bdd
# 0.13-2.09 s, gray12/bdd 1.5-3.8 s over seeds 1-12), so seed-picked
# implementations would spread pairs_per_s by about 14% between runs,
# more than any bound can absorb.  The workload seed orders the
# submissions and, on serve-mix, places the resubmissions and picks the
# mutants and their faults.  README.md gives the reasons for each list.

# One implementation of every circuit per cycle, with two exceptions on
# bdd-fixpoint.  Its deep pairs take 1-4 s each, so alu8 (0.1-0.2 s)
# fills each cycle to nineteen pairs: a run then holds the 57 samples a
# tail needs, and the median lies near the 70th percentile of the alu8
# pairs.  With seven alu8 per cycle it lay at their 88th, next to the
# deep pairs, and its spread over ten runs was 0.195 where the alu8
# pairs' own median spread 0.105.  And lfsr16 runs twice: with one per
# cycle the tail was a single lfsr16 pair, whose own time varies by a
# third between identical runs.  bus (-k 2) is left out of sat-fixpoint:
# one fresh-process bus pair takes 12-19 s, half of a run's window.
SAT_CYCLE = [("ctr16", 1), ("gray12", 1), ("tx", 1), ("arb6", 1), ("lfsr16", 1)]
BDD_CYCLE = [("ctr16", 1), ("gray12", 1), ("lfsr16", 2), ("arb6", 1), ("alu8", 14)]

# serve-mix: first submissions of fixpoint pairs, each later resubmitted
# as is (cache reads) and once with one option changed (a cache miss
# that warm-starts); plus one observable mutant of each small suite
# circuit.  The daemon parses and preflights every submission before its
# cache lookup, so a cache read's latency is the front end alone.  With
# twenty reads per first submission the reads are 85% of the stream and
# the median lies well inside them, a front-end figure, which the layer
# map in README.md ties to verdict_s.p50; with five it lay where the
# reads end and the mutants begin, and moved by half between runs.
SERVE_SAT = ["ctr16", "gray12", "tx", "arb6"]
SERVE_BDD = ["alu8"]
SERVE_READS = 20
SERVE_MUTANTS = [("ctr8", "blif"), ("traffic", "bench"), ("det-bin", "blif"),
                 ("mod10", "bench"), ("arb4", "blif"), ("alu4", "bench"),
                 ("crc16", "blif"), ("shift24", "bench")]
SERVE_CLIENTS = 2  # connections: the host's nproc
SERVE_WORKERS = 1  # daemon worker domains: fewer than the jobs kept outstanding

# Nominal seconds per cycle on a 2-core x86-64 host; only sets the
# number of cycles a run measures.  bdd-fixpoint runs at least three
# cycles, so that fifteen deep pairs hold its tail.
NOMINAL_CYCLE = {"sat-fixpoint": 4.3, "bdd-fixpoint": 13.5, "serve-mix": 5.0}
MIN_CYCLES = {"bdd-fixpoint": 3}

# Set-ups timed before the timed loop and again after it, so that the
# set-up figure samples the host at both ends of the run.
SETUP_REPS = 3
WORKLOADS = list(NOMINAL_CYCLE)


class Item:
    """One submission: a (spec, impl) pair with the options it runs under."""

    def __init__(self, ident, circuit, engine, impl_seed, expect, fmt="blif",
                 mutant_seed=0, speculate=False, kind="first", origin=None, cycle=0):
        self.id = ident
        self.circuit = circuit
        self.engine = engine
        self.impl_seed = impl_seed
        self.expect = expect
        self.fmt = fmt
        self.mutant_seed = mutant_seed
        self.speculate = speculate
        self.kind = kind  # first | repeat | modified | mutant
        self.origin = origin  # the first submission a resubmission repeats
        self.cycle = cycle  # the cycle of the first submission or mutant
        self.spec = self.impl = None

    def label(self):
        opts = self.engine + ("+spec" if self.speculate else "")
        return "%s/%s/%s#%d" % (self.id, self.circuit, opts, self.impl_seed)


def cycles_for(workload, seconds):
    return max(MIN_CYCLES.get(workload, 1), int(round(seconds / NOMINAL_CYCLE[workload])))


def fixpoint_items(workload, seed, n_cycles):
    """The first n_cycles cycles of a fixpoint workload, each cycle in
    seeded order."""
    rng = random.Random("%s:%d" % (workload, seed))
    cycle = SAT_CYCLE if workload == "sat-fixpoint" else BDD_CYCLE
    engine = "sat" if workload == "sat-fixpoint" else "bdd"
    items = []
    for c in range(n_cycles):
        block = [(circuit, c * count + j + 1) for circuit, count in cycle for j in range(count)]
        rng.shuffle(block)
        for circuit, impl_seed in block:
            items.append(Item("p%d" % len(items), circuit, engine, impl_seed, "equivalent"))
    return items


def serve_items(seed, n_cycles):
    """The serve-mix stream of n_cycles cycles.

    Cycle c sends its first submissions and mutants together with the
    changed-option resubmissions of cycle c-1, all in seeded order, and
    after each of them an equal share of the cache reads of cycle c-1's
    first submissions, answered by then.  So every cycle runs the same
    pattern, a block of reads beside each running job, whatever the seed;
    with reads placed at random the share of reads beside a job, and with
    it the median, moved between runs.  The last cycle's resubmissions
    close the stream in the same way."""
    rng = random.Random("serve-mix:%d" % seed)
    items = []

    def add(**kw):
        it = Item("s%d" % len(items), **kw)
        items.append(it)
        return it

    def blocks(jobs, reads):
        rng.shuffle(jobs)
        rng.shuffle(reads)
        q, r = divmod(len(reads), len(jobs))
        k = 0
        for j, job in enumerate(jobs):
            n = q + (1 if j < r else 0)
            yield job
            yield from reads[k:k + n]
            k += n

    modified, reads = [], []
    for c in range(n_cycles):
        jobs = []
        for engine, circuits in (("sat", SERVE_SAT), ("bdd", SERVE_BDD)):
            for circuit in circuits:
                jobs.append(add(circuit=circuit, engine=engine, impl_seed=c + 1,
                                expect="equivalent", cycle=c))
        for circuit, fmt in SERVE_MUTANTS:
            jobs.append(add(circuit=circuit, engine="sat", impl_seed=rng.randrange(1, 1 << 20),
                            expect="not_equivalent", fmt=fmt, kind="mutant",
                            mutant_seed=rng.randrange(1, 1 << 20), cycle=c))
        firsts = [it for it in jobs if it.kind == "first"]
        yield from blocks(jobs + modified, reads)
        modified, reads = [], []
        for f in firsts:
            reads += [add(circuit=f.circuit, engine=f.engine, impl_seed=f.impl_seed,
                          expect="equivalent", kind="repeat", origin=f, cycle=c)
                      for _ in range(SERVE_READS)]
            # a changed speculate flag (SAT pairs) or engine (BDD pairs)
            # misses the cache and warm-starts from the stored checkpoint
            modified.append(add(circuit=f.circuit, engine="sat", speculate=f.engine == "sat",
                                impl_seed=f.impl_seed, expect="equivalent", kind="modified",
                                origin=f, cycle=c))
    yield from blocks(modified, reads)


# --- build and input generation ---------------------------------------------


def build():
    for need in ("dune-project", os.path.join("bin", "seqver.ml"), "lib",
                 os.path.join("perfbench", "tracer", "pbench.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a seqver checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    os.makedirs(WORK, exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release", "--build-dir", BUILD,
         "--cache=disabled", "bin/seqver.exe", "perfbench/tracer/pbench.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        die("build failed:\n" + r.stdout[-4000:])


def generate(items, outdir, assign=True):
    """Write every item's inputs into outdir with the tracer's gen; items
    that share a circuit and seeds share their files.  With assign, the
    items are pointed at the files."""
    os.makedirs(outdir, exist_ok=True)
    key = lambda it: (it.circuit, it.fmt, it.impl_seed, it.mutant_seed)
    unique = {}
    for it in items:
        unique.setdefault(key(it), it)
    lines = "".join("%s %s %s %d %d\n" % (it.id, *k) for k, it in unique.items())
    r = subprocess.run([PBENCH, "gen", outdir], input=lines, capture_output=True, text=True,
                       env=ENV)
    if r.returncode != 0:
        die("input generation failed: " + r.stderr.strip())
    if assign:
        made = {}
        for line in r.stdout.splitlines():
            rec = json.loads(line)
            made[rec["id"]] = (rec["spec"], rec["impl"])
        for it in items:
            it.spec, it.impl = made[unique[key(it)].id]


class Setup:
    """The run's set-up: generating every input and, on serve-mix,
    starting the daemon.  The real set-up is timed together with
    throwaway repetitions before and after the timed loop; setup_s is
    the median of all of them."""

    def __init__(self, items, rundir, serve):
        self.items, self.rundir, self.serve = items, rundir, serve
        self.times = []
        self.daemons = []

    def once(self, keep):
        """One timed set-up into a fresh directory.  Returns the daemon
        when keep (the real set-up); otherwise removes what it made."""
        d = os.path.join(self.rundir, "inputs%d" % len(self.times))
        daemon = None
        t0 = time.perf_counter()
        generate(self.items, d, assign=keep)
        if self.serve:
            daemon = Daemon(self.rundir, "daemon%d" % len(self.times))
            self.daemons.append(daemon)
            daemon.start()
        self.times.append(time.perf_counter() - t0)
        if not keep:
            if daemon is not None:
                problem = daemon.stop()
                if problem:
                    raise bl.GateError("daemon start-up probe: " + problem)
            shutil.rmtree(d)
        return daemon

    def before(self, reps):
        for _ in range(reps - 1):
            self.once(keep=False)
        return self.once(keep=True)

    def after(self, reps):
        for _ in range(reps):
            self.once(keep=False)

    def seconds(self):
        return statistics.median(self.times)

    def stop_daemons(self):
        """Stop every daemon still running; returns the problems seen."""
        return [p for p in (d.stop() for d in self.daemons) if p]


# --- running seqver ---------------------------------------------------------

VERDICTS = {0: "equivalent", 1: "not_equivalent", 3: "unknown"}


def spawn_timed(cmd, out_path):
    """Run cmd to completion; returns (exit code, wall seconds, peak RSS
    in MB).  Peak RSS is the child's ru_maxrss, its VmHWM."""
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, env=ENV)
        killer = threading.Timer(PAIR_TIMEOUT, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_maxrss / 1024.0


def verify_cmd(it, cert, witness):
    cmd = [SEQVER, "verify", it.spec, it.impl, "--emit-cert", cert, "--emit-witness", witness]
    if it.engine == "sat":
        cmd += ["-e", "sat"]
    if it.speculate:
        cmd += ["--speculate"]
    return cmd


def parse_stats(text):
    stats = {}
    for key, pat in (("iterations", r"^\s*iterations:\s+(\d+)"),
                     ("classes", r"^\s*classes:\s+(\d+)"),
                     ("eq_pct", r"^\s*equivalences:\s+([0-9.]+)%"),
                     ("time", r"^\s*time:\s+([0-9.]+) s")):
        m = re.search(pat, text, re.M)
        if m:
            stats[key] = float(m.group(1)) if key in ("time", "eq_pct") else int(m.group(1))
    return stats


def run_verify(it, rundir):
    """One timed `seqver verify` of an item, as a fresh process."""
    base = os.path.join(rundir, it.id)
    cert, witness, out = base + ".cert", base + ".wit", base + ".out"
    for f in (cert, witness):
        if os.path.exists(f):
            os.remove(f)
    code, wall, rss = spawn_timed(verify_cmd(it, cert, witness), out)
    with open(out) as f:
        text = f.read()
    return {"item": it, "verdict": VERDICTS.get(code, "error"), "latency": wall, "rss_mb": rss,
            "cert": cert, "witness": witness, "stats": parse_stats(text)}


def gate_sample(s, checked=None):
    """The correctness gate for one answered submission.  A certificate or
    witness already validated against the same circuits (a cache read
    answers with the first run's certificate) is not checked again when
    the caller passes the set of checked triples."""
    it = s["item"]
    bl.check_verdict(it.label(), s["verdict"], it.expect)
    if s["verdict"] not in ("equivalent", "not_equivalent"):
        return
    proof = s["verdict"] == "equivalent"
    key = (s["cert"] if proof else s["witness"], it.spec, it.impl)
    if checked is not None and key in checked:
        return
    if proof:
        bl.check_certificate(SEQVER, it.label(), *key)
    else:
        bl.check_witness(SEQVER, it.label(), *key)
    if checked is not None:
        checked.add(key)


# --- the serve daemon -------------------------------------------------------


class ProtocolError(Exception):
    pass


class DaemonFailed(Exception):
    """The serve daemon crashed or broke the protocol: the run fails, with
    the submissions it never answered counted as failed."""

    def __init__(self, msg, result):
        super().__init__(msg)
        self.result = result


class Conn:
    def __init__(self, path, timeout=PAIR_TIMEOUT):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def recv(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ProtocolError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        try:
            return json.loads(line)
        except ValueError:
            raise ProtocolError("malformed response %r" % line[:200])

    def request(self, obj):
        self.send(obj)
        resp = self.recv()
        if resp.get("resp") == "error":
            raise ProtocolError(resp.get("message", "error"))
        return resp

    def submit(self, it):
        self.send({"req": "submit", "spec": {"path": it.spec}, "impl": {"path": it.impl},
                   "watch": True,
                   "opts": {"method": "scorr", "engine": it.engine, "induction": 1,
                            "speculate": it.speculate}})
        while True:
            resp = self.recv()
            kind = resp.get("resp")
            if kind == "result":
                return resp["outcome"]
            if kind == "error":
                raise ProtocolError(resp.get("message", "error"))

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class Daemon:
    """A `seqver serve` process on a fresh socket and cache directory."""

    def __init__(self, rundir, name):
        self.dir = os.path.join(rundir, name)
        os.makedirs(self.dir)
        # relative to the working directory: socket paths are length-limited
        self.sock = os.path.relpath(os.path.join(self.dir, "s.sock"), ROOT)
        self.cache = os.path.relpath(os.path.join(self.dir, "cache"), ROOT)
        self.proc = None
        self.rss_mb = 0.0
        self.exit_code = None
        self.stopped = False

    def reap(self, flags=os.WNOHANG):
        """Collect the process's exit status and peak RSS once it has
        exited (waiting for it when flags is 0); True once collected."""
        if self.exit_code is None:
            pid, status, ru = os.wait4(self.proc.pid, flags)
            if pid:
                self.exit_code = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.exit_code
                self.rss_mb = ru.ru_maxrss / 1024.0
                self.log.close()
        return self.exit_code is not None

    def start(self):
        """Start the daemon and wait until it answers a stats request."""
        t0 = time.perf_counter()
        self.log = open(os.path.join(self.dir, "serve.log"), "w")
        self.proc = subprocess.Popen(
            [SEQVER, "serve", "--socket", self.sock, "--cache-dir", self.cache,
             "--workers", str(SERVE_WORKERS)],
            stdout=self.log, stderr=subprocess.STDOUT, cwd=ROOT, env=ENV)
        while True:
            if self.reap():
                raise ProtocolError("daemon exited during start-up (exit %d)" % self.exit_code)
            try:
                c = Conn(self.sock, timeout=10)
                try:
                    c.request({"req": "stats"})
                finally:
                    c.close()
                return
            except (OSError, ProtocolError):
                if time.perf_counter() - t0 > 30:
                    raise ProtocolError("daemon did not come up in 30 s")
                time.sleep(0.005)

    def stats(self):
        c = Conn(self.sock, timeout=10)
        try:
            return c.request({"req": "stats"})
        finally:
            c.close()

    def stop(self):
        """Ask for shutdown and reap the process; kill it if it does not
        exit.  Returns a problem description, or None.  Only the first
        call does anything."""
        if self.proc is None or self.stopped:
            return None
        self.stopped = True
        problem = None
        if not self.reap():
            try:
                c = Conn(self.sock, timeout=10)
                try:
                    c.request({"req": "shutdown"})
                finally:
                    c.close()
            except (OSError, ProtocolError) as e:
                problem = "shutdown request failed: %s" % e
            deadline = time.perf_counter() + 30
            while not self.reap() and time.perf_counter() < deadline:
                time.sleep(0.01)
            if not self.reap():
                problem = problem or "daemon ignored shutdown"
                self.proc.kill()
                self.reap(0)
        if self.exit_code != 0 and problem is None:
            problem = "daemon exited with code %d" % self.exit_code
        sock = os.path.join(ROOT, self.sock)
        if os.path.exists(sock):
            os.remove(sock)
            problem = problem or "daemon leaked its socket"
        return problem


def serve_loop(daemon, items, rundir):
    """The closed loop: SERVE_CLIENTS connections, each with one job
    outstanding, take the stream in order; a resubmission waits until its
    first submission has been answered.  Returns the samples in stream
    order and the loop's wall time."""
    lock = threading.Condition()
    state = {"next": 0, "dead": None}
    done = set()
    samples = [None] * len(items)

    def take():
        with lock:
            while True:
                if state["dead"] or state["next"] >= len(items):
                    return None, None
                i = state["next"]
                it = items[i]
                if it.origin is None or it.origin.id in done:
                    state["next"] += 1
                    return i, it
                lock.wait(1.0)

    def client():
        try:
            conn = Conn(daemon.sock)
        except OSError as e:
            with lock:
                state["dead"] = "cannot connect: %s" % e
                lock.notify_all()
            return
        try:
            while True:
                i, it = take()
                if it is None:
                    return
                t0 = time.perf_counter()
                try:
                    outcome = conn.submit(it)
                    s = {"item": it, "latency": time.perf_counter() - t0, "outcome": outcome,
                         "verdict": outcome.get("verdict", "error")}
                except (OSError, ProtocolError, ValueError) as e:
                    s = {"item": it, "latency": time.perf_counter() - t0, "outcome": None,
                         "verdict": "error", "error": str(e)}
                    with lock:
                        state["dead"] = state["dead"] or "%s: %s" % (it.label(), e)
                with lock:
                    samples[i] = s
                    done.add(it.id)
                    lock.notify_all()
                if s["outcome"] is None:
                    return
        finally:
            conn.close()

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    answered = [s for s in samples if s is not None]
    for s in answered:
        o = s["outcome"]
        if s["verdict"] == "equivalent":
            s["cert"] = os.path.join(ROOT, o["cert"]) if o.get("cert") else None
        elif s["verdict"] == "not_equivalent":
            s["witness"] = os.path.join(rundir, s["item"].id + ".wit")
            bl.write_witness(s["witness"], o.get("trace", []))
    return answered, wall, state["dead"]


# --- metrics ----------------------------------------------------------------


def end_to_end(samples, wall, setup, peak_rss, attempted):
    lat = [s["latency"] for s in samples]
    answered = [s for s in samples if s["verdict"] != "error"]
    decided = [s for s in samples if s["verdict"] in ("equivalent", "not_equivalent")]
    tail, pct, n = bl.tail(lat)
    metrics = {
        "setup_s": (setup, "s"),
        "pairs_per_s": (len(answered) / wall, "1/s"),
        "verdict_s.p50": (statistics.median(lat), "s"),
        "verdict_s.tail": (tail, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "decided_frac": (len(decided) / attempted, "ratio"),
    }
    note = "verdict_s.tail is p%.1f of %d samples" % (pct, n)
    return metrics, note


def layer_metrics(traces, serve=None, overhead=None):
    """Per-layer metrics from the traced processes (and the serve mix)."""
    def tot(name):
        return sum(bl.total_times(t["spans"]).get(name, 0.0) for t in traces)

    def add(field, trs=None):
        return sum(t[field] for t in (traces if trs is None else trs))

    def iters(trs):
        return [sp[4] - sp[3] for t in trs for sp in t["spans"] if sp[1] == "verify.iteration"]

    sat = [t for t in traces if t["engine"] == "sat"]
    bdd = [t for t in traces if t["engine"] == "bdd"]
    sat_it, bdd_it = iters(sat), iters(bdd)
    m = {
        "frontend.parse_s": (tot("frontend.parse"), "s"),
        "frontend.preflight_s": (tot("frontend.preflight"), "s"),
        "frontend.input_bytes": (add("input_bytes"), "bytes"),
        "product.make_s": (tot("product.make"), "s"),
        "product.nodes": (add("product_nodes"), "count"),
        "refute.s": (sum(t["phases"].get("refute", 0.0) for t in traces), "s"),
        "seed.s": (tot("seed.refine"), "s"),
        "seed.splits": (add("seed_splits"), "count"),
        "pool.lanes": (add("pool_lanes"), "count"),
        "pool.resim_splits": (add("resim_splits"), "count"),
        "partition.classes": (add("classes"), "count"),
        "partition.static_splits": (add("static_splits"), "count"),
        "partition.eq_pct": (sum(t["eq_pct"] for t in traces) / len(traces), "%"),
        # the engine's own direct build call, and the phases of runs on it
        "sat.make_s": (tot("sat.make"), "s"),
        "sat.initial_s": (sum(t["phases"].get("initial", 0.0) for t in sat), "s"),
        "sat.fixpoint_s": (sum(t["phases"].get("fixpoint", 0.0) for t in sat), "s"),
        "sat.iteration_s.p50": (statistics.median(sat_it) if sat_it else 0.0, "s"),
        "sat.iteration_s.max": (max(sat_it) if sat_it else 0.0, "s"),
        "sat.iterations": (add("iterations", sat), "count"),
        # solver counters over every run, whatever its engine: the bypass
        # shows as zeros
        "sat.calls": (add("sat_calls"), "count"),
        "sat.batched_solves": (add("batched_solves", sat), "count"),
        "sat.cache_hits": (add("cache_hits", sat), "count"),
        "sat.core_prunes": (add("core_prunes"), "count"),
        "sat.conflicts": (add("conflicts"), "count"),
        "sat.propagations": (add("propagations"), "count"),
        "sat.restarts": (add("restarts"), "count"),
        "sat.encoded_vars": (add("encoded_vars"), "count"),
        "sat.reused_clauses": (add("reused_clauses"), "count"),
        "sat.split_yield": (add("classes_created", sat) / max(1, add("batched_solves", sat)),
                            "ratio"),
        "bdd.make_s": (tot("bdd.make"), "s"),
        "bdd.initial_s": (sum(t["phases"].get("initial", 0.0) for t in bdd), "s"),
        "bdd.fixpoint_s": (sum(t["phases"].get("fixpoint", 0.0) for t in bdd), "s"),
        "bdd.iteration_s.p50": (statistics.median(bdd_it) if bdd_it else 0.0, "s"),
        "bdd.iteration_s.max": (max(bdd_it) if bdd_it else 0.0, "s"),
        "bdd.iterations": (add("iterations", bdd), "count"),
        "bdd.peak_nodes": (max(t["peak_bdd_nodes"] for t in traces), "count"),
        "bdd.made_nodes": (add("bdd_made_nodes"), "count"),
        "bdd.memo_entries": (add("bdd_memo_entries"), "count"),
        "bdd.batched_scans": (add("batched_solves", bdd), "count"),
        "bdd.cache_hits": (add("cache_hits", bdd), "count"),
        "spec.rounds": (add("spec_rounds"), "count"),
        "spec.merges": (add("spec_merges"), "count"),
        "spec.refuted": (add("refuted_assumptions"), "count"),
        "spec.by_sim": (add("spec_by_sim"), "count"),
        "spec.by_bdd": (add("spec_by_bdd"), "count"),
        "spec.by_sat": (add("spec_by_sat"), "count"),
        "gc.minor_words": (add("gc_minor_words"), "words"),
        "gc.promoted_words": (add("gc_promoted_words"), "words"),
        "gc.major_collections": (add("gc_major_collections"), "count"),
        "gc.top_heap_mb": (max(t["gc_top_heap_words"] * t["word_bytes"] for t in traces)
                           / 2 ** 20, "MB"),
        "cert.check_s": (tot("cert.check"), "s"),
        "witness.replay_s": (tot("witness.replay"), "s"),
        "trace.overhead_pct": (overhead, "%"),
    }
    serve = serve or {}
    for name, unit in (("serve.queue_wait_s.p50", "s"), ("serve.queue_wait_s.tail", "s"),
                       ("serve.runtime_s", "s"), ("serve.overhead_s.p50", "s"),
                       ("serve.cache_hits", "count"), ("serve.cache_misses", "count"),
                       ("serve.warm_starts", "count"), ("serve.resumed_iterations", "count")):
        m[name] = (serve.get(name, 0), unit)
    return m


def serve_layer(samples, stats):
    ran = [s for s in samples if s["outcome"] and not s["outcome"]["cached"]]
    waits = [s["outcome"]["queue_wait"] for s in ran] or [0.0]
    over = [s["latency"] - s["outcome"]["runtime"] - s["outcome"]["queue_wait"]
            for s in samples if s["outcome"]] or [0.0]
    return {
        "serve.queue_wait_s.p50": statistics.median(waits),
        "serve.queue_wait_s.tail": bl.tail(waits)[0],
        "serve.runtime_s": sum(s["outcome"]["runtime"] for s in ran),
        "serve.overhead_s.p50": statistics.median(over),
        "serve.cache_hits": stats.get("cache_hits", 0),
        "serve.cache_misses": stats.get("cache_misses", 0),
        "serve.warm_starts": stats.get("warm_starts", 0),
        "serve.resumed_iterations": sum(s["outcome"]["resumed_iterations"]
                                        for s in samples if s["outcome"]),
    }


# --- the traced run ---------------------------------------------------------


def trace_item(it, rundir):
    """The untraced `seqver verify` of an item, then the traced tracer
    process; both must agree on verdict, iterations and classes."""
    plain = run_verify(it, rundir)
    gate_sample(plain)
    r = subprocess.run([PBENCH, "trace", it.spec, it.impl, it.engine, "1",
                        "1" if it.speculate else "0"],
                       capture_output=True, text=True, cwd=ROOT, env=ENV, timeout=PAIR_TIMEOUT)
    if r.returncode != 0:
        raise bl.GateError("%s: traced run failed: %s" % (it.label(), r.stderr.strip()))
    t = json.loads(r.stdout)
    t["engine"] = it.engine
    if t["gate"]:
        raise bl.GateError("%s: traced run: %s" % (it.label(), t["gate"]))
    bl.check_verdict(it.label(), t["verdict"], it.expect)
    # Speculation routes obligations by measured cost, so its iteration
    # count varies between identical untraced runs (ctr16/sat: 74-77);
    # what it guarantees, and its property tests check, is the verdict and
    # the final partition.
    fields = ("verdict", "classes", "eq_pct") if it.speculate else ("verdict", "iterations", "classes")
    want = tuple(plain["verdict"] if f == "verdict" else plain["stats"].get(f) for f in fields)
    got = tuple(float("%.1f" % t[f]) if f == "eq_pct" else t[f] for f in fields)
    if want != got:
        raise bl.GateError("%s: traced run reached %s = %s, untraced %s"
                           % (it.label(), fields, got, want))
    verify_span = sum(sp[4] - sp[3] for sp in t["spans"] if sp[1] == "verify.run")
    return t, plain, verify_span


def traced_run(items, rundir):
    """Trace every distinct submission of the items once."""
    seen, traces, plain_s, traced_s = set(), [], 0.0, 0.0
    for it in items:
        key = (it.spec, it.impl, it.engine, it.speculate)
        if key in seen:
            continue
        seen.add(key)
        t, plain, verify_span = trace_item(it, rundir)
        traces.append(t)
        plain_s += plain["stats"].get("time", 0.0)
        traced_s += verify_span
    overhead = 100.0 * (traced_s - plain_s) / plain_s if plain_s > 0 else 0.0
    selfs = {}
    for t in traces:
        for name, v in bl.self_times(t["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + v
    return traces, overhead, selfs


# --- main -------------------------------------------------------------------


def run_fixpoint(args, rundir):
    items = fixpoint_items(args.workload, args.seed, cycles_for(args.workload, args.seconds))
    if args.trace:
        # the first cycle's items: the same ids and seeds as the timed run's
        items = fixpoint_items(args.workload, args.seed, 1)
        Setup(items, rundir, serve=False).before(1)
        traces, overhead, selfs = traced_run(items, rundir)
        return len(traces), 0, layer_metrics(traces, overhead=overhead), selfs, []
    setup = Setup(items, rundir, serve=False)
    setup.before(SETUP_REPS)
    t0 = time.perf_counter()
    samples = [run_verify(it, rundir) for it in items]
    wall = time.perf_counter() - t0
    setup.after(SETUP_REPS)
    for s in samples:
        gate_sample(s)
    failed = sum(1 for s in samples if s["verdict"] not in ("equivalent", "not_equivalent"))
    metrics, note = end_to_end(samples, wall, setup.seconds(),
                               max(s["rss_mb"] for s in samples), len(items))
    return len(items), failed, metrics, note, samples


def run_serve(args, rundir):
    """The serve mix.  Every item of the stream counts as attempted: one
    the loop never answered, because the daemon crashed or broke the
    protocol, counts as failed."""
    items = list(serve_items(args.seed, cycles_for(args.workload, args.seconds)))
    setup = Setup(items, rundir, serve=True)
    try:
        daemon = setup.before(1 if args.trace else SETUP_REPS)
        samples, wall, dead = serve_loop(daemon, items, rundir)
        stats = daemon.stats() if not dead else {}
        problem = daemon.stop()
        if not args.trace:
            setup.after(SETUP_REPS)
    finally:
        problems = setup.stop_daemons()
    if problem and not dead:
        raise bl.GateError("serve daemon: " + problem)
    if problems:
        raise bl.GateError("serve daemon: " + "; ".join(problems))
    checked = set()
    for s in samples:
        if s["verdict"] != "error":
            gate_sample(s, checked)
    attempted = len(items)
    failed = attempted - sum(1 for s in samples if s["verdict"] in ("equivalent", "not_equivalent"))
    if dead:
        metrics, note = (end_to_end(samples, wall, setup.seconds(), daemon.rss_mb, attempted)
                         if samples else ({}, None))
        raise DaemonFailed("%s (%s); %d of %d submissions unanswered"
                           % (dead, problem, len(items) - len(samples), len(items)),
                           (attempted, failed, metrics, note, samples))
    if args.trace:
        # every distinct submission of the first cycle's circuits
        traces, overhead, selfs = traced_run([it for it in items if it.cycle == 0], rundir)
        return (len(traces), 0, layer_metrics(traces, serve_layer(samples, stats), overhead),
                selfs, [])
    metrics, note = end_to_end(samples, wall, setup.seconds(), daemon.rss_mb, attempted)
    return attempted, failed, metrics, note, samples


def report(args, metrics, note, samples):
    log("perfbench %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for name, (value, unit) in metrics.items():
        log("  %-26s %14.6g %s" % (name, value, unit))
    if isinstance(note, dict):
        log("  self time by span (s):")
        for name, v in sorted(note.items(), key=lambda kv: -kv[1]):
            log("    %-22s %10.4f" % (name, v))
    elif note:
        log("  " + note)
    by_circuit = {}
    for s in samples:
        by_circuit.setdefault(s["item"].circuit + "/" + s["item"].kind, []).append(s["latency"])
    for key, lat in sorted(by_circuit.items()):
        log("  %-22s n=%-3d median %.3f s" % (key, len(lat), statistics.median(lat)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    rundir = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(rundir)
    code = 0
    try:
        try:
            if args.workload == "serve-mix":
                attempted, failed, metrics, note, samples = run_serve(args, rundir)
            else:
                attempted, failed, metrics, note, samples = run_fixpoint(args, rundir)
        except DaemonFailed as e:
            log("perfbench: serve daemon failed: %s" % e)
            attempted, failed, metrics, note, samples = e.result
            code = 1
        except bl.GateError as e:
            log("perfbench: CORRECTNESS GATE FAILED: %s" % e)
            bl.append_history(HISTORY, dict(bl.provenance(ROOT, args.workload, args.seed,
                                                          args.trace, args.seconds),
                                            correct=False, error=str(e)))
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            sys.exit(1)
        report(args, metrics, note, samples)
        result = {"correct": True, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        record = dict(bl.provenance(ROOT, args.workload, args.seed, args.trace, args.seconds))
        record.update(result)
        record["note"] = note if isinstance(note, str) else None
        bl.append_history(HISTORY, record)
        print(json.dumps(result))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    main()
