#!/usr/bin/env python3
"""A/B comparison of bench_e2e runs.

    python3 bench/e2e/compare.py DIR_A DIR_B [--spec BENCHMARK.json]

DIR_A (the parent, or set A) and DIR_B (the change, or set B) each hold the
JSON files bench_e2e writes with --out. Runs pair up by (workload, traced,
seed); the A/B recipe in README.md runs each pair back to back. One row per
(workload, metric): each side's median and quartiles, the fraction of pairs
B wins (ties count for neither), the median and quartile spread of the
paired relative differences (B − A) ÷ A, signed so that positive is better,
and a verdict:

  improved    B wins at least 9 of 10 pairs, its median is better than A's
              by more than A's quartile spread, and no more of its decode
              passes failed
  worse       the median paired difference is a loss larger than the
              metric's bound (a bound of 0: any loss); per-layer metrics,
              which have no bound, mirror improved instead
  unresolved  the quartile spread of the paired differences is wider than
              the bound, unless every B run reads better than every A run
  unchanged   otherwise

Pairing cancels what the two runs of a pair share, such as a slow phase of
the host, so the spread of the paired differences is the noise a verdict
has to beat. The count metrics repeat exactly, so their paired spread is 0.
Bounds and directions come from BENCHMARK.json. Python 3 standard library
only.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if "workload" not in run or "metrics" not in run:
            continue
        key = (run["workload"], bool(run["traced"]))
        runs.setdefault(key, {})[run["seed"]] = run
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound, more_failed):
    """Returns (B's win fraction, paired (q1, median, q3), verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    # Relative to A where A is nonzero; + 0.0 prints a tie as +0, not -0.
    diffs = [sign * (y - x) / (abs(x) or 1.0) + 0.0 for x, y in pairs]
    d1, dmed, d3 = quartiles(diffs)
    b_wins = sum(1 for d in diffs if d > 0) / len(pairs)
    a_wins = sum(1 for d in diffs if d < 0) / len(pairs)
    q1a, ma, q3a = quartiles(a)
    gain = sign * (quartiles(b)[1] - ma)
    spread_a = q3a - q1a
    paired = (d1, dmed, d3)
    if b_wins >= 0.9 and gain > spread_a and not more_failed:
        return b_wins, paired, "improved"
    if bound is None:
        if a_wins >= 0.9 and -gain > spread_a:
            return b_wins, paired, "worse"
        return b_wins, paired, "unchanged"
    if -dmed > bound or (bound == 0 and a_wins > 0):
        return b_wins, paired, "worse"
    every_b_better = all(sign * (y - x) > 0 for x in a for y in b)
    if d3 - d1 > bound and not every_b_better:
        return b_wins, paired, "unresolved"
    return b_wins, paired, "unchanged"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    ap.add_argument("--spec", default=os.path.join(here, "..", "..",
                                                   "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    metric_sets = {False: spec["end_to_end"], True: spec["per_layer"]}

    runs_a, runs_b = load_runs(args.dir_a), load_runs(args.dir_b)
    header = (f"{'workload':<12} {'metric':<26} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'B wins':>6} "
              f"{'(B-A)/A [q1, q3]':>26}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for key in sorted(set(runs_a) & set(runs_b)):
        seeds = sorted(set(runs_a[key]) & set(runs_b[key]))
        if not seeds:
            continue
        workload, traced = key
        failed_a = sum(runs_a[key][s]["failed"] for s in seeds)
        failed_b = sum(runs_b[key][s]["failed"] for s in seeds)
        for m in metric_sets[traced]:
            name = m["name"]
            try:
                a = [runs_a[key][s]["metrics"][name]["value"] for s in seeds]
                b = [runs_b[key][s]["metrics"][name]["value"] for s in seeds]
            except KeyError:
                print(f"{workload:<12} {name:<26} missing in a run")
                continue
            win, (d1, dmed, d3), v = verdict(a, b, m["better"], m.get("bound"),
                                             failed_b > failed_a)
            worse += v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<12} {name:<26} "
                  f"{qa[1]:>12.6g} [{qa[0]:>9.6g}, {qa[2]:>9.6g}] "
                  f"{qb[1]:>12.6g} [{qb[0]:>9.6g}, {qb[2]:>9.6g}] "
                  f"{win:>6.2f} {dmed:>+8.3f} [{d1:>+7.3f}, {d3:>+7.3f}]  {v}")
        print(f"{workload:<12} {'failed passes':<26} {failed_a:>34} "
              f"{failed_b:>34}")
    print(f"pairs per row = seeds present in both sets; rows worse: {worse}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
