#!/usr/bin/env python3
"""Runs each workload as two sets of benchmark runs and compares them.

Usage, from the repository root:

    python3 e2ebench/sets.py [--workload day ...]

Every run is one invocation of the command in BENCHMARK.json, with its own
seed: the first set uses seeds 1..10, the second 101..110. A run whose
detections the reference and fault 1 cannot account for (`correct` false)
stops the script. For each end-to-end metric the script prints each set's
median and quartiles, the spread (interquartile distance over the median),
and whether the sets agree within the metric's bound: both spreads within
it and the two medians apart by no more than it, whichever is better. The
share of failed operations must be exactly the same in both sets.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10
SEEDS = ([i + 1 for i in range(RUNS)], [i + 101 for i in range(RUNS)])


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: detections the reference and fault 1 cannot account for")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="workloads to run (default: all)")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    agree_all = True
    for workload in workloads:
        sets = [[run_once(spec, workload, seed) for seed in seeds] for seeds in SEEDS]
        print(f"== {workload}")
        shares = []
        for results in sets:
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            per_run = sorted({(r["failed"], r["attempted"]) for r in results})
            shares.append((failed, attempted))
            print(f"   failed {failed} of {attempted} attempted; per run {per_run}")
        (f1, a1), (f2, a2) = shares
        if f1 * a2 != f2 * a1:
            print("   failed shares differ between the sets")
            agree_all = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (summary([r["metrics"][name]["value"] for r in results])
                             for results in sets)
            apart = abs(second["median"] - first["median"]) / first["median"]
            ok = first["spread"] <= bound and second["spread"] <= bound and apart <= bound
            agree_all &= ok
            cells = "  ".join(
                f"median {st['median']:.6g} [q1 {st['q1']:.6g}, q3 {st['q3']:.6g}] spread {st['spread']:.3f}"
                for st in (first, second))
            print(f"   {name:<18} bound {bound:<5} {cells}  medians apart {apart:.3f}  "
                  f"{'ok' if ok else 'DISAGREE'}")
    sys.exit(0 if agree_all else 1)


if __name__ == "__main__":
    main()
