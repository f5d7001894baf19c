#!/usr/bin/env python3
"""ctest cli_smoke: the command-line contract of tnb_gen, tnb_eval and
tnb_streamd, and of the benches that take --jobs.

    python3 cli_smoke.py TNB_GEN TNB_EVAL TNB_STREAMD WORKDIR [BENCH...]

--help exits 0 with the usage on stdout (tnb_eval's lists every scheme);
each bad value exits 2 with "<tool>: <flag>:" on stderr; an unknown flag
(tnb_streamd --taps, --stats-every) exits 2 naming it; the
unknown-scheme and unknown-backend messages keep the text CI greps for;
and a tiny gen -> eval -> streamd round trip still decodes. Each BENCH
is only parsed, never run: --help, and a bad or missing --jobs value.

The gateway fleet runs end to end too: an 8-channel composite decoded at
--lanes 1 and 8 must give the same pkt lines (at least 8) and the same
per-channel and total stats (the final stats line from "channels" up to
"ring"), and the resident-IQ high water must stay under its bound.
"""
import os
import re
import subprocess
import sys

failures = []


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def expect(ok, what, r=None):
    if not ok:
        detail = f" (exit {r.returncode}, stderr {r.stderr.strip()!r})" if r else ""
        failures.append(what + detail)


def main():
    gen, ev, sd, workdir = sys.argv[1:5]
    benches = sys.argv[5:]
    os.makedirs(workdir, exist_ok=True)
    prefix = os.path.join(workdir, "trace")
    trace = prefix + ".bin"

    for tool in [gen, ev, sd] + benches:
        name = os.path.basename(tool)
        r = run([tool, "--help"])
        expect(r.returncode == 0 and r.stdout.startswith("usage: " + name)
               and r.stderr == "", f"{name} --help", r)
    r = run([ev, "--help"])
    for scheme in ("tnb", "loraphy", "aligntrack+", "cora-tnb", "lzn-thrive",
                   "sic", "all"):
        expect(scheme in r.stdout, f"tnb_eval --help lacks scheme {scheme}")

    r = run([gen, "--out", prefix, "--sf", "7", "--duration", "0.6",
             "--load", "8", "--seed", "3"])
    expect(r.returncode == 0, "tnb_gen round trip", r)
    r = run([ev, "--in", prefix, "--sf", "7", "--scheme", "tnb"])
    row = [l.split() for l in r.stdout.splitlines() if l.startswith("TnB ")]
    expect(r.returncode == 0 and row and not row[0][1].startswith("0/"),
           "tnb_eval round trip decodes", r)
    r = run([sd, "--sf", "7", "--in", trace])
    expect(r.returncode == 0 and "\npkt " in "\n" + r.stdout,
           "tnb_streamd round trip decodes", r)

    bad = [
        (gen, ["--out", prefix, "--sf", "13"], "--sf"),
        (gen, ["--out", prefix, "--sf", "abc"], "--sf"),
        (gen, ["--out", prefix, "--load", "abc"], "--load"),
        (ev, ["--in", prefix, "--sf", "13"], "--sf"),
        (ev, ["--in", prefix, "--sf", "abc"], "--sf"),
        (ev, ["--in", prefix, "--implicit-len", "272"], "--implicit-len"),
        (ev, ["--in", prefix, "--implicit-len", "-5"], "--implicit-len"),
        (sd, ["--in", trace, "--sf", "13"], "--sf"),
        (sd, ["--in", trace, "--sf", "abc"], "--sf"),
        (sd, ["--in", trace, "--implicit-len", "272"], "--implicit-len"),
        (sd, ["--in", trace, "--implicit-len", "-5"], "--implicit-len"),
        (sd, ["--in", trace, "--chunk", "abc"], "--chunk"),
        # --sfs picks the fleet's lane SFs; one channel decodes at --sf.
        (sd, ["--in", trace, "--sfs", "7,9", "--lanes", "4"], "--sfs"),
    ]
    for bench in benches:
        for jobs in (["abc"], ["0"], ["-2"], []):
            bad.append((bench, ["--jobs"] + jobs, "--jobs"))
    for tool, args, flag in bad:
        name = os.path.basename(tool)
        r = run([tool] + args)
        shown = args if tool in benches else args[2:]  # drop --in/--out
        expect(r.returncode == 2 and f"{name}: {flag}:" in r.stderr,
               f"{name} {' '.join(shown)}", r)

    # Neither is a flag: the fleet's channelizer has one exact regime, and
    # --stats-interval is the one spelling of the stats period.
    for flag in ("--taps", "--stats-every"):
        r = run([sd, "--in", trace, flag, "4"])
        expect(r.returncode == 2 and f"'{flag}'" in r.stderr,
               f"tnb_streamd {flag} 4", r)

    r = run([ev, "--in", prefix, "--sf", "7", "--scheme", "nope"])
    expect(r.returncode == 2 and "unknown scheme 'nope'" in r.stderr
           and "valid:" in r.stderr, "tnb_eval --scheme nope", r)
    r = run([ev, "--in", prefix, "--fft-backend", "nope"])
    expect(r.returncode == 2 and "unknown fft backend 'nope'" in r.stderr,
           "tnb_eval --fft-backend nope", r)

    fleet = os.path.join(workdir, "fleet")
    r = run([gen, "--out", fleet, "--channels", "8", "--sf", "8",
             "--duration", "1.0", "--load", "6", "--seed", "7"])
    expect(r.returncode == 0, "tnb_gen --channels 8", r)
    pkts, spans, last = {}, {}, {}
    for lanes in ("1", "8"):
        r = run([sd, "--in", fleet + ".bin", "--channels", "8", "--sf", "8",
                 "--window", "512", "--lanes", lanes])
        expect(r.returncode == 0, f"tnb_streamd --channels 8 --lanes {lanes}",
               r)
        lines = r.stdout.splitlines()
        pkts[lanes] = [l for l in lines if l.startswith("pkt ")]
        last[lanes] = ([l for l in lines if l.startswith("stats ")] or [""])[-1]
        m = re.search(r'"channels":\{.*\},"ring"', last[lanes])
        spans[lanes] = m.group(0) if m else ""
    expect(pkts["1"] == pkts["8"], "fleet pkt lines differ at --lanes 1 and 8")
    expect(len(pkts["8"]) >= 8, f"fleet decoded {len(pkts['8'])} packets")
    expect(spans["8"] != "" and spans["1"] == spans["8"],
           "fleet channel stats differ at --lanes 1 and 8")
    hw = re.search(r'"resident_iq_high_water":(\d+)', last["8"])
    bound = re.search(r'"resident_iq_bound":(\d+)', last["8"])
    expect(hw and bound and int(hw.group(1)) <= int(bound.group(1)),
           "fleet resident IQ over its bound: " + last["8"])

    for f in failures:
        print("cli_smoke: FAIL " + f)
    if failures:
        sys.exit(1)
    print("cli_smoke: ok")


if __name__ == "__main__":
    main()
