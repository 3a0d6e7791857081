#!/usr/bin/env python3
"""Tiny-size smoke run of every workload, checking the output schema.

    python3 perfbench/smoke.py

Runs perfbench/run.py --size tiny on each workload in BENCHMARK.json, once
untraced and once traced, and checks that the last line is the result
object with exactly the keys correct/attempted/failed/metrics, that the
untraced run reports every end-to-end metric and the traced run every
per-layer metric (with the units BENCHMARK.json gives, as finite numbers),
and that every output check passed. Exits non-zero on the first mismatch.
Tiny runs are too short to mean anything as measurements.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload, trace, expected):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return f"{where}: exit {done.returncode}"
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{where}: result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0:
        return f"{where}: checks failed: {lines[-2]}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return f"{where}: attempted {result['attempted']}"
    if "host" not in json.loads(lines[-2]):
        return f"{where}: no host block before the result"
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"{where}: missing {missing}, unexpected {extra}"
    for name, unit in expected.items():
        value = metrics[name]
        if sorted(value) != ["unit", "value"] or value["unit"] != unit:
            return f"{where}: {name} is {value}, unit should be {unit}"
        if not isinstance(value["value"], (int, float)) or \
                not math.isfinite(value["value"]):
            return f"{where}: {name} value {value['value']} is not finite"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problem = check(workload, trace, expected[trace])
            if problem:
                print(f"smoke: FAIL {problem}")
                return 1
            print(f"smoke: ok {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
