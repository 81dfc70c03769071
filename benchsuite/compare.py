#!/usr/bin/env python3
"""Compares two result sets of the benchmark suite.

    python3 benchsuite/compare.py A.json B.json
    python3 benchsuite/compare.py A.json        (spread of one set)

A is the parent, B the change; both are files written by
`run.py --out` (use --append to collect runs, alternating A and B). For
each workload x metric it prints both medians and quartiles, B's win
fraction over A (runs paired in order; ties count for neither side) and
a verdict, using the bounds in BENCHMARK.json:

  better      B wins >= 9/10 of the pairs and the medians differ by more
              than A's own spread (the distance between its quartiles)
  unresolved  the run-to-run spread of either side is wider than the
              bound, and not every B run beats every A run
  worse       B's median is worse than A's by more than the bound
  same        none of the above

Per-layer metrics have no bound; their rows carry no verdict. A last row
per workload compares the share of transact calls that failed, summed
over its runs: `worse` if B's share is higher than A's at all. Exits 1 if
any end-to-end metric or failed share is worse. Given one file, prints
each metric's median, quartiles and spread (quartile distance over
median) next to its bound, and each workload's failed calls.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    """{(workload, metric): [values in run order]} and
    {workload: [failed, attempted] summed over its runs}."""
    with open(path) as f:
        doc = json.load(f)
    values, calls = {}, {}
    for run in doc["runs"]:
        for name, m in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(m["value"])
        c = calls.setdefault(run["workload"], [0, 0])
        c[0] += run["failed"]
        c[1] += run["attempted"]
    return values, calls


def failed_frac(calls, workload):
    failed, attempted = calls[workload]
    return failed / attempted if attempted else 0.0


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(a, b, higher_better, bound):
    """Returns (B's win fraction, verdict or '')."""
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    if bound is None:
        return wins, ""
    med_a, med_b = statistics.median(a), statistics.median(b)
    qa1, qa3 = quartiles(a)
    qb1, qb3 = quartiles(b)
    gain = sign * (med_b - med_a)
    if wins >= 0.9 and gain > 0 and abs(med_b - med_a) > qa3 - qa1:
        return wins, "better"
    spread = max((qa3 - qa1) / abs(med_a) if med_a else 0.0,
                 (qb3 - qb1) / abs(med_b) if med_b else 0.0)
    b_beats_all = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not b_beats_all:
        return wins, "unresolved"
    if med_a and -gain / abs(med_a) > bound:
        return wins, "worse"
    return wins, "same"


def describe(runs, metrics, keys):
    print(f"{'workload':<14} {'metric':<32} {'n':>3} {'median':>12} "
          f"{'q1..q3':>23} {'spread':>7} {'bound':>6}")
    for workload, name in keys:
        v = runs[(workload, name)]
        q1, q3 = quartiles(v)
        med = statistics.median(v)
        bound = metrics.get(name, {}).get("bound")
        print(f"{workload:<14} {name:<32} {len(v):>3} {med:>12.5g} "
              f"{q1:>11.5g}..{q3:<11.5g}"
              f"{(q3 - q1) / abs(med) if med else 0.0:>7.3f} "
              f"{'' if bound is None else bound:>6}")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    order = [w["name"] for w in spec["workloads"]]

    def ordered(keys):
        return sorted(keys, key=lambda k: (
            order.index(k[0]) if k[0] in order else len(order),
            list(metrics).index(k[1]) if k[1] in metrics else len(metrics)))

    a, calls_a = load_runs(sys.argv[1])
    if len(sys.argv) == 2:
        describe(a, metrics, ordered(a))
        for workload in calls_a:
            print(f"{workload:<14} failed {calls_a[workload][0]} of "
                  f"{calls_a[workload][1]} calls")
        return 0
    b, calls_b = load_runs(sys.argv[2])
    keys = ordered(set(a) & set(b))
    print(f"{'workload':<14} {'metric':<32} {'n':>5} {'A median':>12} "
          f"{'A q1..q3':>23} {'B median':>12} {'B q1..q3':>23} "
          f"{'B wins':>6}  verdict")
    worse = False
    for workload, name in keys:
        m = metrics.get(name, {})
        va, vb = a[(workload, name)], b[(workload, name)]
        wins, v = verdict(va, vb, m.get("better", "higher") == "higher",
                          m.get("bound"))
        worse |= v == "worse"
        qa, qb = quartiles(va), quartiles(vb)
        print(f"{workload:<14} {name:<32} {len(va):>2}/{len(vb):<2} "
              f"{statistics.median(va):>12.5g} "
              f"{qa[0]:>11.5g}..{qa[1]:<11.5g}"
              f"{statistics.median(vb):>12.5g} "
              f"{qb[0]:>11.5g}..{qb[1]:<11.5g}{wins:>6.2f}  {v}")
    # A gain does not count when more calls fail than at the parent.
    for workload in [w for w in order if w in calls_a and w in calls_b]:
        fa = failed_frac(calls_a, workload)
        fb = failed_frac(calls_b, workload)
        v = "worse" if fb > fa else "same"
        worse |= v == "worse"
        print(f"{workload:<14} {'failed_frac':<32} {'':>5} {fa:>12.5g} "
              f"{'':>23} {fb:>12.5g} {'':>23} {'':>6}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
