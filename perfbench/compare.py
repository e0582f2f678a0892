#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--workload W]

Each file holds run records, one JSON object a line, as run.py appends
them to .perfbench/history.jsonl (copy or filter that file to make a
set).  Only correct, untraced runs count.  For every workload in both
sets and every end-to-end metric of BENCHMARK.json, prints each side's
median and quartiles and a verdict:

  improved    the change wins at least nine tenths of the run pairs and
              the medians differ by more than the base's quartile distance
  no worse    the change's median is not worse than the base's by more
              than the metric's bound
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound and not every change run beats every base run
  regressed   worse than the base's median by more than the bound

A last row per workload sums the failed submissions of each set: the
change regressed if it failed more of them than the base, however
small the share.

Runs pair by workload seed where both sets have it, otherwise in order.
Exits 1 when any metric regressed.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib as bl  # noqa: E402


def load(path, workload=None):
    runs = {}
    for rec in bl.read_history(path):
        if rec.get("trace") or not rec.get("correct") or not rec.get("metrics"):
            continue
        if workload and rec["workload"] != workload:
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def pairs(base, change):
    """(base value index, change value index) pairs: same seed first, then
    the rest in order."""
    by_seed = {}
    for j, r in enumerate(change):
        by_seed.setdefault(r["seed"], []).append(j)
    out, used_b, used_c = [], set(), set()
    for i, r in enumerate(base):
        js = by_seed.get(r["seed"])
        if js:
            j = js.pop(0)
            out.append((i, j))
            used_b.add(i)
            used_c.add(j)
    rest_b = [i for i in range(len(base)) if i not in used_b]
    rest_c = [j for j in range(len(change)) if j not in used_c]
    return out + list(zip(rest_b, rest_c))


def verdict(a, b, paired, better, bound):
    """The verdict for one metric: a and b are the base and change values,
    paired the index pairs."""
    sign = 1.0 if better == "higher" else -1.0
    qa1, ma, qa3 = bl.quartiles(a)
    _, mb, _ = bl.quartiles(b)
    wins = sum(1 for i, j in paired if sign * (b[j] - a[i]) > 0)
    if (paired and wins >= 0.9 * len(paired) and sign * (mb - ma) > 0
            and abs(mb - ma) > qa3 - qa1):
        return "improved"
    worse = sign * (ma - mb) / abs(ma) if ma else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if bl.spread(a) > bound or bl.spread(b) > bound:
        return "no worse" if all_better else "unresolved"
    return "regressed" if worse > bound else "no worse"


def failures(a_runs, b_runs):
    """Summed failed submissions of each set, and the verdict on them."""
    fa = sum(r["failed"] for r in a_runs)
    fb = sum(r["failed"] for r in b_runs)
    return fa, fb, "regressed" if fb > fa else "no worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(args.base, args.workload), load(args.change, args.workload)
    regressed = False
    print("%-13s %-15s %26s %26s  %s" % ("workload", "metric", "base q1/median/q3",
                                         "change q1/median/q3", "verdict"))
    for wl in sorted(set(base) & set(change)):
        a_runs, b_runs = base[wl], change[wl]
        paired = pairs(a_runs, b_runs)
        for m in metrics:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            v = verdict(a, b, paired, m["better"], m["bound"])
            regressed |= v == "regressed"
            qa, qb = bl.quartiles(a), bl.quartiles(b)
            print("%-13s %-15s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g  %s  (n=%d/%d)"
                  % (wl, name, *qa, *qb, v, len(a), len(b)))
        fa, fb, v = failures(a_runs, b_runs)
        regressed |= v == "regressed"
        print("%-13s %-15s %26d %26d  %s" % (wl, "failed (sum)", fa, fb, v))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
