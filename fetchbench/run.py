#!/usr/bin/env python3
"""Build and run the end-to-end page-fetch benchmark for one workload.

Usage, from the root of the repository:

    python3 fetchbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds fetchbench/ and the src/ libraries it links with CMake (Release)
into $CARGO_TARGET_DIR/fetchbench, default .bench_build/fetchbench, runs the
workload in a process of its own, checks that the metrics it reports are the
ones BENCHMARK.json names, and prints the result JSON as the last line of
standard output.  With --trace 1 the traced phase's spans are written to
spans-<workload>.csv in the build directory.  Exits non-zero, without
printing a result, when the build, the run or the check fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"fetchbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "fetchbench"


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ to build in {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "fetchbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out / "fetchbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        spans = build_dir() / f"spans-{args.workload}.csv"
        command += ["--spans-out", str(spans)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {run.returncode}")
    result = json.loads(lines[-1])

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if result["attempted"] < 1:
        fail("no op attempted")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}, "
             f"want {sorted(want)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
