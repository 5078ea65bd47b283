#!/usr/bin/env python3
"""Wire-to-verdict benchmark entry point.

Builds the benchmark (perfbench/, which compiles the scrubber libraries
straight from src/) into .bench_build/perfbench with CMake, then runs one
workload from the root of the checkout:

    python3 perfbench/run.py --workload ce1-detect --seed 1 --seconds 15 --trace 0

Prints provenance, the benchmark's report and, as the last line of standard
output, one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the replay's spans to .bench_build/perfbench/spans-<workload>.tsv).
--workload all runs every workload in turn; its last line merges their
results, each metric named <workload>/<metric>.

Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments or no
scrubber sources next to this directory, 3 build failure, 4 timeout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "wire2verdict")
WORKLOADS = ("ce1-ingest", "ce1-detect", "ce1-wire")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_digest():
    """sha256 over every file under src/ (paths and contents), sorted."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "unknown"


def build():
    """Configures (once) and builds; build output goes to stderr."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-G", generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, check=False).returncode != 0:
            return False
    command = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, check=False).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"perfbench: no scrubber sources at {os.path.join(ROOT, 'src')}")
        return 2
    if not build():
        log("perfbench: build failed")
        return 3

    print(f"provenance: git_sha={git_sha()} src_sha256={source_digest()} "
          f"build_type=RelWithDebInfo nproc={os.cpu_count()}", flush=True)
    if args.workload != "all":
        code, lines, _ = run_workload(args.workload, args)
        print("\n".join(lines), flush=True)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_workload(workload, args)
        print(f"\n=== {workload} ===", *lines[:-1], sep="\n", flush=True)
        worst = max(worst, code)
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged), flush=True)
    return worst


def run_workload(workload, args):
    """Runs the binary for one workload. Returns its exit code, its report
    lines and its parsed result line (None when absent)."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(BUILD, f"spans-{workload}.tsv")]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} run exceeded {RUN_TIMEOUT_S} s")
        return 4, [], None
    lines = result.stdout.splitlines()
    try:
        parsed = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        parsed = None
    return result.returncode, lines, parsed


if __name__ == "__main__":
    sys.exit(main())
