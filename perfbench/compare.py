#!/usr/bin/env python3
"""Compares two result sets of perfbench/run.py, or reports one set's spread.

  python3 perfbench/compare.py BASE.jsonl NEW.jsonl
  python3 perfbench/compare.py RESULTS.jsonl          # spread only
  python3 perfbench/compare.py R.jsonl R.jsonl --base-commit abc1 --new-commit def2

A result set is a results.jsonl written by run.py (a directory holding one
works too); --base-commit / --new-commit keep only the runs of a commit
(prefix match), so both sides can come from one file. Only untraced,
full-size runs whose checks all passed are compared; the skipped failed runs
are counted. Runs from hosts with a different core count or SIMD tier are
never compared: the script refuses a set that mixes them.

For every (workload, end-to-end metric) the report gives each side's median
and quartiles, the pairwise win fraction of NEW over BASE (ties count for
neither), and a verdict against the metric's bound in BENCHMARK.json:

  worse       NEW's median is worse than BASE's by more than the bound
  improved    NEW wins >= 90% of pairs and the medians differ by more than
              BASE's interquartile range
  unresolved  either side spreads (IQR / median) wider than the bound,
              unless every NEW run beats every BASE run
  unchanged   otherwise
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path, commit=None):
    """Returns ({(workload, metric): [values]}, {host facts}, failed runs)."""
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    runs, hosts, failed = {}, set(), 0
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["trace"] or r["smoke"]:
                continue
            if commit and not r["host"].get("commit", "").startswith(commit):
                continue
            if r["failed"] or not r["correct"]:
                failed += 1
                continue
            hosts.add((r["host"]["nproc"], r["host"]["simd_tier"]))
            for name, m in r["metrics"].items():
                runs.setdefault((r["workload"], name), []).append(m["value"])
    return runs, hosts, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def better(a, b, higher):
    return a > b if higher else a < b


def verdict(base, new, bound, higher):
    _, bmed, _ = quartiles(base)
    bq1, _, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if better(n, b, higher))
    win_frac = wins / len(pairs)
    change = (nmed - bmed) / bmed if bmed else 0.0
    worse_by = -change if higher else change
    all_better = all(better(n, b, higher) for b, n in pairs)
    if worse_by > bound:
        v = "worse"
    elif win_frac >= 0.9 and abs(nmed - bmed) > (bq3 - bq1):
        v = "improved"
    elif max(spread(base), spread(new)) > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return win_frac, change, v


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--base-commit")
    ap.add_argument("--new-commit")
    args = ap.parse_args(argv[1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    base, base_hosts, base_failed = load(args.base, args.base_commit)
    new, new_hosts, new_failed = (None, set(), 0)
    if args.new:
        new, new_hosts, new_failed = load(args.new, args.new_commit)
    if base_failed or new_failed:
        print("skipped runs with failed checks: base %d, new %d"
              % (base_failed, new_failed))
    hosts = base_hosts | new_hosts
    if len(hosts) > 1:
        print("refusing to compare runs from different hosts "
              "(nproc, simd_tier): %s" % sorted(hosts), file=sys.stderr)
        return 2

    fmt = "%-13s %-20s %5s %12s %12s %12s %7s"
    if new is None:
        print(fmt % ("workload", "metric", "n", "q1", "median", "q3",
                     "spread") + "  bound/3")
    else:
        print(fmt % ("workload", "metric", "n", "base", "new", "change",
                     "wins") + "  verdict")
    worst = 0
    for w in workloads:
        for name, m in metrics.items():
            b = base.get((w, name))
            if not b:
                continue
            if new is None:
                q1, q2, q3 = quartiles(b)
                s = spread(b)
                flag = "" if s <= m["bound"] / 3 else "  WIDE"
                print(fmt % (w, name, len(b), "%.4g" % q1, "%.4g" % q2,
                             "%.4g" % q3, "%.3f" % s)
                      + "  %.3f%s" % (m["bound"] / 3, flag))
                continue
            n = new.get((w, name))
            if not n:
                continue
            higher = m["better"] == "higher"
            win_frac, change, v = verdict(b, n, m["bound"], higher)
            bq1, bq2, bq3 = quartiles(b)
            nq1, nq2, nq3 = quartiles(n)
            print(fmt % (w, name, "%d/%d" % (len(b), len(n)),
                         "%.4g" % bq2, "%.4g" % nq2, "%+.1f%%" % (100 * change),
                         "%.2f" % win_frac) + "  " + v)
            print("%-13s %-20s %5s %12s %12s" % (
                "", "  quartiles", "", "%.4g-%.4g" % (bq1, bq3),
                "%.4g-%.4g" % (nq1, nq3)))
            worst = max(worst, 1 if v == "worse" else 0)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
