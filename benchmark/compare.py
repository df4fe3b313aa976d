#!/usr/bin/env python3
"""Compares two sets of xftl_bench runs against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON records run.py appends (one per workload run); a
seed may appear in several runs. For every (metric, workload) it prints each
side's median and quartiles over all runs and a verdict:

  better      the change's median improves by more than the parent's
              quartile spread and the change wins at least 9 in 10 of the
              seeds both sides ran, each side's runs of a seed taken at their
              median (or, without shared seeds, every run beats every run)
  same        neither better nor worse beyond the bound
  worse       the median is worse than the parent's by more than the bound
  unresolved  either side's spread (IQR / median) exceeds the bound and not
              every run of the change beats (or loses to) every parent run

Per-layer metrics (traced records) have no bound and get no verdict.

Simulated results are a function of the seed alone, so for every metric
measured on the simulated clock every run of one seed must read the same, on
either side; any difference is flagged as "sim changed". Host-clock metrics
(host_txn_per_s, setup_s, peak_rss_mb, *.wall_ms, trace.*) vary run to run.

Exits 1 on any "worse" verdict or when the change fails a larger share of
its transactions than the parent, 0 otherwise.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HOST_METRICS = {"host_txn_per_s", "setup_s", "peak_rss_mb"}


def is_host(name):
    return name in HOST_METRICS or name.endswith("wall_ms") or \
        name.startswith("trace.")


def load(path):
    """(traced, workload, metric) -> {seed: [value per run]};
    workload -> [failed, attempted] txns summed over its runs."""
    values = defaultdict(lambda: defaultdict(list))
    txns = defaultdict(lambda: [0, 0])
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        txns[r["workload"]][0] += r["failed"]
        txns[r["workload"]][1] += r["attempted"]
        for name, m in r["metrics"].items():
            values[(r["traced"], r["workload"], name)][r["seed"]].append(
                m["value"])
    return values, txns


def runs(by_seed):
    return [v for vs in by_seed.values() for v in vs]


def quartiles(vs):
    if len(vs) == 1:
        return vs[0], vs[0], vs[0]
    q1, q2, q3 = statistics.quantiles(vs, n=4)
    return q1, statistics.median(vs), q3


def spread(vs):
    q1, med, q3 = quartiles(vs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    """a, b: {seed: [values]} of parent and change; better: 'higher'|'lower'."""
    sign = 1.0 if better == "higher" else -1.0
    av, bv = runs(a), runs(b)
    gain = lambda x, y: sign * (y - x)  # > 0 when y is better than x
    all_better = all(gain(x, y) > 0 for x in av for y in bv)
    all_worse = all(gain(x, y) < 0 for x in av for y in bv)
    if spread(av) > bound or spread(bv) > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    a_q1, a_med, a_q3 = quartiles(av)
    b_med = quartiles(bv)[1]
    if a_med and -gain(a_med, b_med) / abs(a_med) > bound:
        return "worse"
    seeds = sorted(set(a) & set(b))
    if seeds:
        med = statistics.median
        wins = sum(gain(med(a[s]), med(b[s])) > 0 for s in seeds)
        won = wins >= 0.9 * len(seeds)
    else:
        won = all_better
    if gain(a_med, b_med) > a_q3 - a_q1 and won:
        return "better"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    parent, parent_txns = load(sys.argv[1])
    change, change_txns = load(sys.argv[2])
    workloads = [w["name"] for w in spec["workloads"]]
    rows = [(False, m) for m in spec["end_to_end"]] + \
           [(True, m) for m in spec["per_layer"]]

    regressions = 0
    sim_changes = 0
    print(f"{'metric':34s} {'workload':18s} {'parent med [q1, q3]':>34s} "
          f"{'change med [q1, q3]':>34s} {'delta':>8s}  verdict")
    for traced, m in rows:
        for w in workloads:
            a = parent.get((traced, w, m["name"]))
            b = change.get((traced, w, m["name"]))
            if not a or not b:
                continue
            aq, bq = quartiles(runs(a)), quartiles(runs(b))
            delta = (bq[1] - aq[1]) / abs(aq[1]) * 100 if aq[1] else 0.0
            word = verdict(a, b, m["better"], m["bound"]) if not traced else ""
            regressions += word == "worse"
            if not is_host(m["name"]) and \
                    any(len(set(a.get(s, []) + b.get(s, []))) > 1
                        for s in set(a) | set(b)):
                word += " (sim changed)"
                sim_changes += 1
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{m['name']:34s} {w:18s} {fmt(aq):>34s} {fmt(bq):>34s} "
                  f"{delta:+7.2f}%  {word}")
    for w in workloads:
        (af, aa), (bf, ba) = parent_txns[w], change_txns[w]
        if bf * max(aa, 1) > af * max(ba, 1):
            print(f"{w}: {bf} of {ba} transactions failed "
                  f"(parent {af} of {aa})")
            regressions += 1
    print(f"{regressions} regression(s), {sim_changes} simulated value(s) "
          f"changed")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
