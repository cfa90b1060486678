#!/usr/bin/env python3
"""Steadiness check: runs every workload in two sets of runs of the same
code and prints, per end-to-end metric, each set's median and quartiles,
the spread (interquartile distance over the median) against the metric's
bound, and how far the second set's median moved from the first's.

Run from the repository root:

    python3 perfbench/steady.py                       # 2 sets x 10 seeds
    python3 perfbench/steady.py --runs 5 --sets 1 --workload serve_unique

A metric passes when its spread in every set stays within its bound and
the second median is not worse than the first by more than the
bound; the failed share of operations must be identical in both sets.
The bounds in BENCHMARK.json are set from these numbers. Exits non-zero
when a check fails. Each run's result line is appended to
perfbench/out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    log = open(os.path.join("perfbench", "out", "steady.jsonl"), "a")

    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                result = run_once(bench["command"], workload, seed, bench["run_seconds"])
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                log.flush()
                if not result["correct"]:
                    print(f"{workload} seed {seed}: answers did not check out")
                    ok = False
                results.append(result)
            sets.append(results)

        print(f"\n{workload}: {args.sets} set(s) of {args.runs} runs")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        print(f"  failed share per set: {shares}")
        if len(set(shares)) > 1:
            ok = False
        print(f"  {'metric':<18} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3, sp = spread(values)
                medians.append(q2)
                steady = sp <= bound
                verdict = "ok" if sp <= bound / 3 else ("within bound" if steady else "TOO WIDE")
                ok &= steady
                print(f"  {name:<18} {s + 1:>3} {q1:>12.4f} {q2:>12.4f} {q3:>12.4f} "
                      f"{sp:>8.4f} {bound:>6}  {verdict}")
            if len(medians) > 1:
                sign = 1 if metric["better"] == "lower" else -1
                worse = sign * (medians[1] - medians[0]) / medians[0]
                drift_ok = worse <= bound
                ok &= drift_ok
                print(f"  {name:<18} second median {'worse' if worse > 0 else 'better'} "
                      f"by {abs(worse):.4f} ({'ok' if drift_ok else 'BEYOND BOUND'})")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
