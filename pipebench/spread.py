#!/usr/bin/env python3
"""Steadiness check: runs the benchmark in sets of runs and prints, for each
end-to-end metric, the spread within each set next to the metric's bound,
and how far the second set's median moved from the first's.

Run from the root of a checkout:

    python3 pipebench/spread.py --workload offline_sweep --runs 10 --sets 2

Each run uses another seed. The spread of a set is the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median. A metric is steady when every set's spread is within its bound and
every later set's median differs from the first set's, in either direction,
by at most the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def run_once(root, bench, workload, seed, trace=0):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s" % " ".join(cmd))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def drift(first, second):
    """Share by which the second median differs from the first."""
    return abs(second / first - 1.0)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    root = os.getcwd()
    bench, bounds = load_bounds(root)

    seed = args.first_seed
    sets = []
    for s in range(args.sets):
        results = []
        for _ in range(args.runs):
            r = run_once(root, bench, args.workload, seed)
            seed += 1
            results.append(r)
            print("set %d seed %d correct=%s failed=%d/%d %s" % (
                s + 1, seed - 1, r["correct"], r["failed"], r["attempted"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in r["metrics"].items())), flush=True)
        sets.append(results)

    ok = True
    print("\n%-22s %8s %s %s" % ("metric", "bound", " ".join(
        "spread%d  median%d   " % (i + 1, i + 1) for i in range(len(sets))),
        "drift"))
    for name, m in bounds.items():
        cols, medians = [], []
        for results in sets:
            sp, med = spread([r["metrics"][name]["value"] for r in results])
            cols.append("%7.4f %10.4g" % (sp, med))
            medians.append(med)
            if sp > m["bound"]:
                ok = False
        moved = max((drift(medians[0], x) for x in medians[1:]), default=0.0)
        if moved > m["bound"]:
            ok = False
        print("%-22s %8.3f %s %7.4f" % (name, m["bound"], "   ".join(cols),
                                        moved))
    if not all(r["correct"] for results in sets for r in results):
        ok = False
    shares = {r["failed"] / r["attempted"] for results in sets for r in results}
    print("failed share per run: %s" % sorted(shares))
    if len(shares) != 1:
        ok = False
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
