#!/usr/bin/env python3
"""ctest examples_smoke: every example runs with its defaults, exits 0 and
prints its key lines.

    python3 examples_smoke.py QUICKSTART COLLISION_DEMO BEC_RESCUE \
        DECODE_FILE GATEWAY_TRACE

quickstart prints a "PRR:" line; collision_demo a row for every scheme and
for SIC; bec_rescue finds the transmitted block among the BEC candidates;
decode_file lists decoded nodes; and gateway_trace's streaming run and its
one-shot run ("indoor 8 10 oneshot", the same arguments as its defaults)
print the same "total:" line.
"""
import re
import subprocess
import sys

# base::scheme_name of every registered scheme, then the SIC extension.
SCHEMES = ["TnB", "Thrive", "Sibling", "LoRaPHY", "CIC", "CIC+",
           "AlignTrack*", "AlignTrack*+", "CoRa", "CoRa+", "LZn-Thrive",
           "CoRa-TnB", "SIC (ext)"]

failures = []


def run(cmd):
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        failures.append(f"{' '.join(cmd)}: exit {r.returncode}, "
                        f"stderr {r.stderr.strip()!r}")
    return r.stdout


def expect(ok, what):
    if not ok:
        failures.append(what)


def lines_matching(text, pattern):
    return [l for l in text.splitlines() if re.match(pattern, l)]


def main():
    quickstart, collision_demo, bec_rescue, decode_file, gateway = sys.argv[1:6]

    expect(lines_matching(run([quickstart]), r"PRR: \d+/\d+"),
           "quickstart: no 'PRR:' line")

    out = run([collision_demo])
    for name in SCHEMES:
        expect(lines_matching(out, re.escape(name) + r"\s+\d+/\d+\s"),
               f"collision_demo: no row for {name}")

    expect("matches the transmitted block" in run([bec_rescue]),
           "bec_rescue: no candidate matches the transmitted block")

    expect(lines_matching(run([decode_file]), r"\s+node \d+ seq \d+"),
           "decode_file: no decoded node line")

    streamed = lines_matching(run([gateway]), r"total: ")
    oneshot = lines_matching(run([gateway, "indoor", "8", "10", "oneshot"]),
                             r"total: ")
    expect(len(streamed) == 1 and streamed == oneshot,
           f"gateway_trace: total lines differ: {streamed} vs {oneshot}")

    for f in failures:
        print("FAIL:", f)
    if failures:
        sys.exit(1)
    print("examples_smoke: ok")


if __name__ == "__main__":
    main()
