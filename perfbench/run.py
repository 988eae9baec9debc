#!/usr/bin/env python3
"""Build the TransFusion benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds
perfbench/ (a CMake project over src/) into .bench_build/; later calls
rebuild incrementally.  Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.  --selftest builds, runs
the C++ self-tests and checks BENCHMARK.json against the metrics the
binary declares.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def run_checked(cmd, **kwargs):
    """Run cmd to completion with stdout sent to stderr; exit on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(f"run.py: {' '.join(map(str, cmd))} failed "
                         f"with exit code {proc.returncode}\n")
        sys.exit(proc.returncode or 1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write(f"run.py: no program sources under {ROOT}/src\n")
        sys.exit(2)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env=env)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    run_checked(["cmake", "--build", str(BUILD), "-j", jobs], env=env)


def run_binary(args):
    """Run a built binary under the timeout; return its exit code."""
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {args[0]} exceeded "
                         f"{RUN_TIMEOUT_S} s and was killed\n")
        return 1


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json():
    """BENCHMARK.json must declare exactly what the binary prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listing = subprocess.run([str(BUILD / "perfbench"), "--list-metrics"],
                             capture_output=True, text=True, check=True,
                             timeout=RUN_TIMEOUT_S).stdout
    declared = {"end_to_end": [], "per_layer": []}
    for line in listing.splitlines():
        kind, name, unit, better = line.split("\t")[:4]
        declared[kind].append((name, unit, better))
    problems = []
    for kind in declared:
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
        if listed != declared[kind]:
            problems.append(f"{kind} in BENCHMARK.json differs from "
                            f"perfbench --list-metrics")
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]):
            problems.append(f"bad unit {m['unit']!r}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if not all(0 < b <= 0.25 for b in bounds.values()):
        problems.append("every bound must be in (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    known = subprocess.run([str(BUILD / "perfbench"), "--list-workloads"],
                           capture_output=True, text=True, check=True,
                           timeout=RUN_TIMEOUT_S).stdout.split()
    if sorted(w["name"] for w in spec["workloads"]) != sorted(known):
        problems.append("BENCHMARK.json workloads differ from the binary's")
    for p in problems:
        sys.stderr.write(f"run.py: {p}\n")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")

    build()
    if args.selftest:
        code = run_binary([str(BUILD / "perfbench_selftest")])
        ok = check_benchmark_json()
        sys.exit(code if code else (0 if ok else 1))
    sys.stdout.flush()
    sys.exit(run_binary([
        str(BUILD / "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace]))


if __name__ == "__main__":
    main()
