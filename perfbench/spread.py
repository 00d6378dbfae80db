#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3] [--seconds S]
                                [--trace 0|1]

For each metric: the median over the seeds and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median. Compare these shares with the bounds in BENCHMARK.json.
Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values = {}
    units = {}
    for seed in [int(s) for s in args.seeds.split(",")]:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"{'metric':30s} {'median':>14s} {'iqr/median':>11s}  n")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            share = f"{(q3 - q1) / abs(med):11.4f}"
        else:
            share = f"{'-':>11s}"
        print(f"{name:30s} {med:14.6g} {share}  {len(vs)} ({units[name]})")


if __name__ == "__main__":
    main()
