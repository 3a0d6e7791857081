#!/usr/bin/env python3
"""Builds and runs the RootStress benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay|campaign|wire \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

The first call builds the library (src/) and the benchmark binary
(perfbench/) in Release under .bench_build/; later calls reuse that build.
The binary's stdout is passed through: its last line is the result object,
the line before it the host block. Exits non-zero, without a result line,
when the build or the run fails, or when an environment variable that
changes what is measured is set.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170

# Every ROOTSTRESS_* variable is refused. The ones that silently change
# what is measured: ROOTSTRESS_THREADS (engine and campaign lanes),
# ROOTSTRESS_VPS (population size), ROOTSTRESS_BGP_MODE (full recompute
# instead of incremental BGP), ROOTSTRESS_TRACE / _PERFETTO / _PROM /
# _DATASET (file exports inside timed calls), ROOTSTRESS_LOG (log volume).
REFUSED_PREFIX = "ROOTSTRESS_"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_environment():
    for name in sorted(os.environ):
        if name.startswith(REFUSED_PREFIX):
            fail(f"refusing to run with {name} set; it changes what the "
                 f"benchmark measures. Unset it and retry.")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    binary = BUILD / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay", "campaign", "wire"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")
    check_environment()
    binary = build()
    scratch = ROOT / ".bench_build" / f"run-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--scratch", str(scratch), "--git-sha", git_sha()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"perfbench exited with {done.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("perfbench printed a malformed result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
