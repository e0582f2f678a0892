"""Shared pieces of the seqver benchmark: sample statistics, span self
time, the correctness gate, provenance and the run history."""

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import time

# --- statistics -------------------------------------------------------------


def quartiles(values):
    """First quartile, median and third quartile, as the acceptance rule
    computes them (statistics.quantiles with n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail(values):
    """The highest percentile that still has at least ten samples beyond
    it: with n samples, the value of rank n-10 in ascending order.  It is
    never reported below the median; with too few samples it is the
    median.  Returns (value, percentile, n)."""
    n = len(values)
    ordered = sorted(values)
    mid = statistics.median(ordered)
    rank = n - 10
    if rank >= 1 and ordered[rank - 1] >= mid:
        return ordered[rank - 1], 100.0 * rank / n, n
    return mid, 50.0, n


# --- spans ------------------------------------------------------------------


def self_times(spans):
    """Per span name, the summed self time: each span's duration minus the
    part of its interval that its children cover.  A span is (id, name,
    parent, start, stop); parent -1 marks a root."""
    children = {}
    for sid, _name, parent, start, stop in spans:
        children.setdefault(parent, []).append((start, stop))
    out = {}
    for sid, name, _parent, start, stop in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, [])):
            c0, c1 = max(c0, reach), min(c1, stop)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[name] = out.get(name, 0.0) + (stop - start) - covered
    return out


def total_times(spans):
    """Per span name, the summed duration."""
    out = {}
    for _sid, name, _parent, start, stop in spans:
        out[name] = out.get(name, 0.0) + (stop - start)
    return out


# --- correctness gate -------------------------------------------------------


class GateError(Exception):
    """A wrong verdict: the message names the pair."""


def check_verdict(pair, verdict, expect):
    """A conclusive verdict must be the known answer; unknowns are not
    wrong, they count against decided_frac."""
    if verdict in ("equivalent", "not_equivalent") and verdict != expect:
        raise GateError("%s: verdict %s, expected %s" % (pair, verdict, expect))


def check_certificate(seqver, pair, cert, spec, impl):
    """Re-validate a proof with the independent certificate checker."""
    if not cert or not os.path.exists(cert):
        raise GateError("%s: proof without a certificate" % pair)
    r = subprocess.run([seqver, "check-cert", cert, spec, impl, "-q"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise GateError("%s: certificate rejected (exit %d) %s"
                        % (pair, r.returncode, r.stderr.strip()))


def check_witness(seqver, pair, witness, spec, impl):
    """Replay a refutation's witness: it must show an output mismatch."""
    if not witness or not os.path.exists(witness):
        raise GateError("%s: refutation without a witness" % pair)
    r = subprocess.run([seqver, "replay", witness, spec, impl, "-q"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise GateError("%s: witness does not replay (exit %d) %s"
                        % (pair, r.returncode, r.stderr.strip()))


def write_witness(path, frames):
    """A witness file in the seqver-witness text format from the serve
    protocol's trace: one '0'/'1' string per frame."""
    lines = ["seqver-witness 1", "pis %d" % (len(frames[0]) if frames else 0),
             "frames %d" % len(frames), "failing-frame %d" % (len(frames) - 1)]
    lines += ["frame %d %s" % (t, bits) for t, bits in enumerate(frames)]
    lines.append("end")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# --- provenance and history -------------------------------------------------


def source_digest(root):
    """MD5 over the program's sources (lib, bin, perfbench, dune files),
    so runs of a checkout that is not a git repository still name the
    code they measured."""
    h = hashlib.md5()
    for top in ("dune-project", "dune", "lib", "bin", "perfbench"):
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
                files += [os.path.join(d, n) for n in sorted(names)
                          if n.endswith((".ml", ".mli", ".py")) or n == "dune"]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def ocaml_version():
    try:
        r = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                           capture_output=True, text=True, timeout=30)
        return r.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(root, workload, seed, trace, seconds):
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": git_commit(root),
        "source_md5": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": ocaml_version(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
    }


def append_history(path, record):
    """Append one record; history is never rewritten."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def read_history(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
