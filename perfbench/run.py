#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the pimcomp library and the
perfbench runner from source (Release) into .bench_build/perfbench, runs one
workload, and passes the runner's output through: every metric with its
unit, then one JSON result object as the last line. Run records and traces
land in .bench_build/runs. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = pathlib.Path(".bench_build") / "perfbench"
RUNS = pathlib.Path(".bench_build") / "runs"
WORKLOADS = ("compile_ht", "compile_ll", "serve_fleet")
# Beyond --seconds, a run sets up, checks its outputs and, when traced,
# runs its probes; the slowest of these (a traced compile_ll) took about
# 80 s on a 4-vCPU VM.
RUN_MARGIN_S = 140


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; the log stays on disk."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return BUILD / "perfbench"


def git_commit():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return result.stdout.strip() if result.returncode == 0 else "unavailable"


def source_digest():
    """Identity of the benchmarked source, also where git is absent."""
    digest = hashlib.sha256((ROOT / "CMakeLists.txt").read_bytes())
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_names(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return want == got


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(RUNS),
               "--spec", "BENCHMARK.json", "--commit", git_commit(),
               "--source-digest", source_digest()]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with code {run.returncode}")
    lines = run.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    if not check_names(result, args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metric names differ from BENCHMARK.json")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
