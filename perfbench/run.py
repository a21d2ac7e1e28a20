#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload cdn-hybridtier --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. Builds the simulator library and the
perfbench program from source into .bench_build/perfbench (Release),
prints provenance, runs the program, and prints its result as one JSON
line, the last line of stdout: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. Exits nonzero
when the sources are missing, the build fails, or a check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# Seconds the benchmark program may run once built (a run must end within 180 s;
# only a checkout's first run also pays for the build).
RUN_TIMEOUT_S = 165.0


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)


def source_digest():
    """sha256 over the simulator and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "core" / "simulation.cc").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}", 2)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {sorted(names)}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    print(f"provenance: git {git_sha()}, sources sha256 {source_digest()}, "
          f"host {platform.node()} ({platform.machine()}, "
          f"{platform.release()}), nproc {os.cpu_count()}, "
          f"cpus usable {len(os.sched_getaffinity(0))}")
    sys.stdout.flush()

    command = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 4)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result line (exit code {done.returncode})", 5)

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    unit_errors = [m["name"] for m in wanted if m["name"] in metrics and
                   metrics[m["name"]]["unit"] != m["unit"]]
    if missing or unit_errors:
        result["correct"] = False
        print(f"CHECK FAILED: metrics missing {missing}, "
              f"unit mismatch {unit_errors}")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted
                         if m["name"] in metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
