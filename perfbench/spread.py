#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's metrics.

Runs perfbench/run.py once per seed on each chosen workload and prints,
for every metric, the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. Spreads of end-to-end metrics are compared against
their bound in BENCHMARK.json (a metric is steady when its spread stays
below a third of its bound).

    python3 perfbench/spread.py [--workloads replay,campaign,wire]
        [--seeds 1-10] [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: "
                      f"{done.stdout.splitlines()[-2]}")
                ok = False
            runs[workload].append(
                {k: v["value"] for k, v in result["metrics"].items()})
        print(f"\n{workload}: {len(runs[workload])} runs")
        print(f"  {'metric':44s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
        names = list(runs[workload][0]) if runs[workload] else []
        for name in names:
            values = [r[name] for r in runs[workload]]
            s = spread(values) if len(values) >= 2 else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s > bound / 3:
                flag = "  <- above bound/3"
            print(f"  {name:44s} {statistics.median(values):14.6g} "
                  f"{s:8.4f} {bound if bound is not None else '':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
