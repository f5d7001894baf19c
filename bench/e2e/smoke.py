#!/usr/bin/env python3
"""ctest bench_e2e_smoke: a short sf7_sparse run, untraced then traced.

    python3 smoke.py BENCH_E2E BENCHMARK.json WORKDIR

Both runs must exit 0 with every check passing, report every metric
BENCHMARK.json names for their mode (end_to_end untraced, per_layer
traced) with its unit, and decode the same packets (equal digests).
"""
import json
import os
import subprocess
import sys


def run(binary, workdir, traced):
    out = os.path.join(workdir, "traced.json" if traced else "untraced.json")
    cmd = [binary, "--workload", "sf7_sparse", "--seed", "2", "--seconds", "2",
           "--out", out]
    if traced:
        cmd.append("--traced")
    rc = subprocess.run(cmd, timeout=240).returncode
    if rc != 0:
        sys.exit(f"smoke: {' '.join(cmd)} exited {rc}")
    with open(out) as f:
        return json.load(f)


def check_metrics(run, wanted, mode):
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"smoke: {mode} run lacks {m['name']} [{m['unit']}]")
        if not isinstance(got["value"], (int, float)):
            sys.exit(f"smoke: {mode} {m['name']} is not a number")


def main():
    binary, spec_path, workdir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    os.makedirs(workdir, exist_ok=True)
    untraced = run(binary, workdir, traced=False)
    traced = run(binary, workdir, traced=True)
    for r in (untraced, traced):
        if not r["correct"] or r["attempted"] < 1:
            sys.exit(f"smoke: run not correct: {r['checks']}")
    check_metrics(untraced, spec["end_to_end"], "untraced")
    check_metrics(traced, spec["per_layer"], "traced")
    if untraced["decoded_digest"] != traced["decoded_digest"]:
        sys.exit("smoke: traced and untraced runs decoded different packets")
    print(f"smoke: ok, digest {untraced['decoded_digest']}")


if __name__ == "__main__":
    main()
