#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

The first call configures and builds the repository's libraries and
bench_e2e into .bench_build/e2e at the checkout root; later calls rebuild
incrementally. The run's own lines (METRIC, INFO, CHECK) pass through, and
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end_to_end metrics of
BENCHMARK.json, --trace 1 the per_layer ones.

Exits 1 without a result line when the source tree is missing, the build
fails, or the run produces no result; exits 1 after the result line when a
correctness check failed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout_s, stdout):
    """Runs cmd in its own process group and reaps the whole group, so a
    timeout leaves no compiler or bench process behind."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout_s:.0f} s: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no TnB source tree at {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if call(cmd, deadline - time.monotonic(), sys.stderr) != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, "bench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # A terminated run.py still reaps its children (call's finally clause).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build(start + BUILD_TIMEOUT_S)
    out_path = os.path.join(BUILD, f"run-{os.getpid()}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out_path]
    if args.trace:
        cmd.append("--traced")
    sys.stdout.flush()
    rc = call(cmd, RUN_TIMEOUT_S, sys.stdout)
    try:
        with open(out_path) as f:
            run = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"bench_e2e exited {rc} without a result: {e}")
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)

    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing from the run")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(run["correct"]) and rc == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
