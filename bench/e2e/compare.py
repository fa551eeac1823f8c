#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines `run.py --results FILE` appends, one per run. Only
untraced runs (--trace 0) are compared. Bounds and directions come from
BENCHMARK.json at the repository root (override with --benchmark).

Runs are paired by (workload, seed), so run both sides on the same seeds,
alternating which side runs first, at least ten pairs. For every (workload,
metric) it reports each side's median and quartiles, `worse` (the median
over pairs of the change's relative difference from its parent, positive
when the change is worse) and the pair-win fraction, then classifies:

  regression   `worse` exceeds the metric's bound
  unresolved   the parent's own quartile spread is wider than the bound, and
               not every run of the change beats every run of the parent
  gain         the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               quartile spread
  ok           none of the above

Taking the median of per-pair differences, not the difference of the two
medians, cancels a slow period of a shared host that hits both runs of a
pair.

A run fails the comparison when it exited non-zero, reported correct=false
or failed > 0, or has no run with the same (workload, seed) on the other
side. One row is printed per workload. Exits 1 on any regression or failed
run.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
GAIN_WIN_FRACTION = 0.9


def load(path):
    """(workload, seed) -> untraced run records, in file order."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace", 0) == 0:
                    runs[(rec["workload"], rec["seed"])].append(rec)
    return runs


def run_problem(recs):
    """Why the runs recorded for one (workload, seed) cannot count, or None."""
    if not recs:
        return "no run"
    if len(recs) > 1:
        return f"{len(recs)} runs"
    rec, res = recs[0], recs[0].get("result")
    if rec.get("exit", 0) != 0:
        return f"exit {rec['exit']}"
    if res is None:
        return "no result"
    if not res["correct"] or res["failed"]:
        return f"correct={res['correct']} failed={res['failed']}"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def classify(parent, change, better, bound):
    """Classifies paired values; returns (status, worse, pair-win fraction)."""
    sign = 1 if better == "lower" else -1
    worse = statistics.median(sign * (c - p) / p if p else 0.0
                              for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    p_lo, p_hi = quartiles(parent)
    spread = (p_hi - p_lo) / pm if pm else 0.0

    def beats(c, p):
        return sign * (c - p) < 0

    wins = sum(1 for p, c in zip(parent, change) if beats(c, p))
    win_frac = wins / len(parent) if len(parent) >= MIN_PAIRS else None

    if worse > bound:
        status = "regression"
    elif spread > bound and not all(beats(c, p)
                                    for c in change for p in parent):
        status = "unresolved"
    elif (worse < 0 and win_frac is not None
          and win_frac >= GAIN_WIN_FRACTION and abs(cm - pm) > p_hi - p_lo):
        status = "gain"
    else:
        status = "ok"
    return status, worse, win_frac


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)

    failed = False
    pairs = defaultdict(list)  # workload -> [(parent result, change result)]
    for key in sorted(set(parent) | set(change)):
        problems = [f"{side} {why}" for side, why in
                    (("parent", run_problem(parent.get(key))),
                     ("change", run_problem(change.get(key)))) if why]
        if problems:
            print(f"{key[0]} seed {key[1]}: " + ", ".join(problems))
            failed = True
            continue
        pairs[key[0]].append((parent[key][0]["result"],
                              change[key][0]["result"]))

    regressed = False
    for workload, results in sorted(pairs.items()):
        cells = []
        for m in metrics:
            name = m["name"]
            if not all(name in p["metrics"] and name in c["metrics"]
                       for p, c in results):
                continue
            p = [r["metrics"][name]["value"] for r, _ in results]
            c = [r["metrics"][name]["value"] for _, r in results]
            status, worse, win_frac = classify(p, c, m["better"], m["bound"])
            regressed |= status == "regression"
            p_lo, p_hi = quartiles(p)
            c_lo, c_hi = quartiles(c)
            wins = "n/a" if win_frac is None else f"{win_frac:.2f}"
            cells.append(
                f"{name}={statistics.median(p):.4g}[{p_lo:.4g},{p_hi:.4g}]"
                f"->{statistics.median(c):.4g}[{c_lo:.4g},{c_hi:.4g}]"
                f" worse={worse:+.1%}/{m['bound']:.0%} wins={wins} {status}")
        print(f"{workload} ({len(results)} pairs): " + "; ".join(cells))
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
