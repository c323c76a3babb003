#!/usr/bin/env python3
"""Builds and runs the rcarb wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a full checkout: it configures and builds
perfbench/ (which pulls in the repository's own CMake build) into
$CARGO_TARGET_DIR, default .bench_build, under the checkout root, then runs
the benchmark binary.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list.  See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = "rcarb_perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type

# Set-up is sampled from fresh processes (it warms process-wide memos, so a
# second set-up in one process would measure nothing): at least
# SETUP_MIN_SAMPLES, and more while sampling has taken under
# SETUP_SAMPLING_S, up to SETUP_MAX_SAMPLES.  The main run adds one more.
SETUP_MIN_SAMPLES = 4
SETUP_MAX_SAMPLES = 14
SETUP_SAMPLING_S = 2.5
SETUP_TIMEOUT_S = 30
# Everything after the build must end within this many seconds.
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    if ROOT != path and ROOT not in path.parents:
        fail(f"build directory {path} is outside the checkout {ROOT}")
    return path


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no rcarb sources under {ROOT}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    def configure():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        return subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out_dir), *generator,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    def compile_target():
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.run(
            ["cmake", "--build", str(out_dir), "--target", TARGET, "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    configured = (out_dir / "CMakeCache.txt").is_file()
    if not configured and not configure():
        fail("cmake configure failed")
    if not compile_target():
        # A stale cache (for example from another checkout path): start over.
        if not configured:
            fail("build failed")
        shutil.rmtree(out_dir)
        if not configure() or not compile_target():
            fail("build failed")
    binary = out_dir / TARGET
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def last_json_line(stdout, what):
    lines = stdout.rstrip("\n").split("\n")
    try:
        return lines[:-1], json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{what} printed no result line")


def run_binary(cmd, timeout, what):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} did not finish within {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{what} exited with code {proc.returncode}")
    return last_json_line(proc.stdout, what)


def sample_setups(binary, workload, seed):
    samples = []
    start = time.monotonic()
    while len(samples) < SETUP_MIN_SAMPLES or (
            len(samples) < SETUP_MAX_SAMPLES
            and time.monotonic() - start < SETUP_SAMPLING_S):
        _, result = run_binary(
            [str(binary), "--workload", workload, "--seed", str(seed),
             "--setup-only"], SETUP_TIMEOUT_S, "set-up run")
        samples.append(float(result["setup_s"]))
    return samples


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    out_dir = build_dir()
    binary = build(out_dir)
    deadline = time.monotonic() + RUN_BUDGET_S

    setups = [] if args.trace else sample_setups(binary, args.workload,
                                                 args.seed)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    if args.trace:
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.json")]
    report, result = run_binary(cmd, deadline - time.monotonic(),
                                "benchmark run")
    for line in report:
        print(line)

    metrics = result["metrics"]
    if setups:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s: median of {len(setups)} cold-process set-ups: "
              + " ".join(f"{s:.6g}" for s in setups))

    # The result carries exactly the declared metrics, in declared order.
    # A per-layer metric of a layer this workload never enters reads 0.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    undeclared = set(metrics) - {m["name"] for m in declared}
    if undeclared:
        fail(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    ordered = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != declared {m['unit']}")
        if not math.isfinite(got["value"]) or (
                not args.trace and got["value"] <= 0):
            fail(f"{m['name']} measured {got['value']}")
        ordered[m["name"]] = got
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": ordered}))


if __name__ == "__main__":
    main()
