#!/usr/bin/env python3
"""ctest cli_smoke: tnb_gen, tnb_eval, tnb_streamd and tnb_promcheck end to
end, and the command-line contract of the benches.

    python3 cli_smoke.py TNB_GEN TNB_EVAL TNB_STREAMD TNB_PROMCHECK WORKDIR \
        [BENCH...] [--run BENCH]...

WORKDIR is emptied first. Every failed check prints one line, "cli_smoke:
FAIL <check>: <what>", and the script exits 1.

contract: --help exits 0 with the usage on stdout (tnb_eval's lists every
  scheme); each bad value exits 2 with "<tool>: <flag>:" on stderr; an
  unknown flag (tnb_streamd --taps, --stats-every, --realtime) exits 2
  naming it; the unknown-scheme and unknown-backend messages keep their
  text; a file the tools cannot read or write exits 1 with "<tool>: " on
  stderr (tnb_streamd --in a directory, single-channel and --channels 4;
  tnb_streamd and tnb_eval --metrics-file in a missing directory). Each BENCH is only parsed, never run: --help, and a bad or
  missing --jobs value.
round trip: a tiny gen -> eval -> streamd run still decodes.
stdin: a trace piped into tnb_streamd decodes at least 3 packets, the same
  pkt lines and final "stream" stats as --in.
wire: a --wire-format trace decodes at least 3 packets on stdin and every
  decoded (node, seq) is in the ground truth; the implicit-header wire
  trace decodes at least 2 at --implicit-len 16 (14 app bytes + CRC16).
scheme grid: tnb_eval --scheme all prints one row per scheme, identical at
  --jobs 1 and 8 (the timing-dependent runs= and stage lines excluded).
metrics: periodic --metrics-history snapshots and the --metrics-file pass
  tnb_promcheck with every pipeline stage and the ring and segment
  counters, and the pkt lines equal a --stats-interval 0 run.
impair: a zero-severity chain of all six stages leaves tnb_gen's .bin and
  .csv byte-identical; a mildly impaired trace decodes at least 3 packets
  through tnb_streamd --impair; tnb_eval --impair prints a TnB row; bursty
  traffic decodes at least 3 packets.
fft backend: tnb_eval --fft-backend auto and scalar name the backend.
fleet: an 8-channel composite decoded at --lanes 1 and 8 gives the same pkt
  lines (at least 8) and the same per-channel and total stats (the final
  stats line from "channels" up to "ring"), and the resident-IQ high water
  stays under its bound and under the composite's length.
benches: each --run BENCH exits 0.
"""
import argparse
import filecmp
import glob
import os
import re
import shutil
import subprocess

# base::scheme_name of every registered scheme.
SCHEMES = ["TnB", "Thrive", "Sibling", "LoRaPHY", "CIC", "CIC+",
           "AlignTrack*", "AlignTrack*+", "CoRa", "CoRa+", "LZn-Thrive",
           "CoRa-TnB"]

failures = []


def run(cmd, stdin=None):
    """Runs cmd; `stdin` names a file piped into it."""
    if stdin is None:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    with open(stdin, "rb") as f:
        return subprocess.run(cmd, stdin=f, capture_output=True, text=True,
                              timeout=120)


def expect(ok, check, what, r=None):
    if not ok:
        detail = f" (exit {r.returncode}, stderr {r.stderr.strip()!r})" if r else ""
        failures.append(f"{check}: {what}{detail}")


def pkts(r):
    return [l for l in r.stdout.splitlines() if l.startswith("pkt ")]


def last_stats(r):
    return ([l for l in r.stdout.splitlines() if l.startswith("stats ")]
            or [""])[-1]


def stream_stats(r):
    """The final stats line's "stream" object: the decode's own counters,
    without the ring's timing-dependent ones."""
    m = re.search(r'"stream":\{.*\},"ring"', last_stats(r))
    return m.group(0) if m else None


def gen(t, check, prefix, *args):
    r = run([t.gen, "--out", prefix] + list(args))
    expect(r.returncode == 0, check, "tnb_gen " + " ".join(args), r)


def decodes(check, what, r, floor):
    """r exited 0 with at least `floor` pkt lines; returns them."""
    lines = pkts(r)
    expect(r.returncode == 0 and len(lines) >= floor, check,
           f"{what} decoded {len(lines)} packets, want >= {floor}", r)
    return lines


def check_contract(t, w):
    c = "contract"
    prefix = os.path.join(w, "trace")
    trace = prefix + ".bin"
    for tool in [t.gen, t.ev, t.sd] + t.benches:
        name = os.path.basename(tool)
        r = run([tool, "--help"])
        expect(r.returncode == 0 and r.stdout.startswith("usage: " + name)
               and r.stderr == "", c, f"{name} --help", r)
    r = run([t.ev, "--help"])
    for scheme in ("tnb", "loraphy", "aligntrack+", "cora-tnb", "lzn-thrive",
                   "sic", "all"):
        expect(scheme in r.stdout, c, f"tnb_eval --help lacks scheme {scheme}")

    c = "round trip"
    gen(t, c, prefix, "--sf", "7", "--duration", "0.6", "--load", "8",
        "--seed", "3")
    r = run([t.ev, "--in", prefix, "--sf", "7", "--scheme", "tnb"])
    row = [l.split() for l in r.stdout.splitlines() if l.startswith("TnB ")]
    expect(r.returncode == 0 and row and not row[0][1].startswith("0/"), c,
           "tnb_eval decodes", r)
    r = run([t.sd, "--sf", "7", "--in", trace])
    expect(r.returncode == 0 and pkts(r), c, "tnb_streamd decodes", r)

    c = "contract"
    bad = [
        (t.gen, ["--out", prefix, "--sf", "13"], "--sf"),
        (t.gen, ["--out", prefix, "--sf", "abc"], "--sf"),
        (t.gen, ["--out", prefix, "--load", "abc"], "--load"),
        (t.ev, ["--in", prefix, "--sf", "13"], "--sf"),
        (t.ev, ["--in", prefix, "--sf", "abc"], "--sf"),
        (t.ev, ["--in", prefix, "--implicit-len", "272"], "--implicit-len"),
        (t.ev, ["--in", prefix, "--implicit-len", "-5"], "--implicit-len"),
        (t.sd, ["--in", trace, "--sf", "13"], "--sf"),
        (t.sd, ["--in", trace, "--sf", "abc"], "--sf"),
        (t.sd, ["--in", trace, "--implicit-len", "272"], "--implicit-len"),
        (t.sd, ["--in", trace, "--implicit-len", "-5"], "--implicit-len"),
        (t.sd, ["--in", trace, "--chunk", "abc"], "--chunk"),
        # --sfs picks the fleet's lane SFs; one channel decodes at --sf.
        (t.sd, ["--in", trace, "--sfs", "7,9", "--lanes", "4"], "--sfs"),
    ]
    for bench in t.benches:
        for jobs in (["abc"], ["0"], ["-2"], []):
            bad.append((bench, ["--jobs"] + jobs, "--jobs"))
    for tool, args, flag in bad:
        name = os.path.basename(tool)
        r = run([tool] + args)
        shown = args if tool in t.benches else args[2:]  # drop --in/--out
        expect(r.returncode == 2 and f"{name}: {flag}:" in r.stderr, c,
               f"{name} {' '.join(shown)}", r)

    # None is a flag: the fleet's channelizer has one exact regime,
    # --stats-interval is the one spelling of the stats period, and file
    # input is never paced.
    for args in (["--taps", "4"], ["--stats-every", "4"], ["--realtime"]):
        r = run([t.sd, "--in", trace] + args)
        expect(r.returncode == 2 and f"'{args[0]}'" in r.stderr, c,
               "tnb_streamd " + " ".join(args), r)

    r = run([t.ev, "--in", prefix, "--sf", "7", "--scheme", "nope"])
    expect(r.returncode == 2 and "unknown scheme 'nope'" in r.stderr
           and "valid:" in r.stderr, c, "tnb_eval --scheme nope", r)
    r = run([t.ev, "--in", prefix, "--fft-backend", "nope"])
    expect(r.returncode == 2 and "unknown fft backend 'nope'" in r.stderr, c,
           "tnb_eval --fft-backend nope", r)

    # A file that cannot be read or written is an error, not an abort.
    bad_csv = os.path.join(w, "badcsv")
    with open(bad_csv + ".bin", "wb") as f:
        f.write(bytes(400))
    with open(bad_csv + ".csv", "w") as f:
        f.write("not,a,ground,truth\n")
    missing = os.path.join(w, "missing")
    unwritable = os.path.join(missing, "x.prom")
    for tool, args, reason in [
            (t.sd, ["--in", missing + ".bin"], "cannot open"),
            # A read error on the producer thread reaches the exit code.
            (t.sd, ["--in", w, "--sf", "7"], "read failed"),
            (t.sd, ["--in", w, "--sf", "8", "--channels", "4"],
             "read failed"),
            (t.sd, ["--in", trace, "--sf", "7", "--metrics-file", unwritable],
             "cannot write " + unwritable),
            (t.ev, ["--in", prefix, "--sf", "7", "--scheme", "tnb",
                    "--metrics-file", unwritable],
             "cannot write " + unwritable),
            (t.ev, ["--in", missing], "cannot open"),
            (t.ev, ["--in", prefix, "--sf", "7", "--antennas", "2"],
             "cannot open"),
            (t.ev, ["--in", bad_csv], "bad header"),
            (t.gen, ["--out", os.path.join(missing, "x"), "--sf", "7",
                     "--duration", "0.6"], "cannot open"),
    ]:
        name = os.path.basename(tool)
        r = run([tool] + args)
        expect(r.returncode == 1 and r.stderr.startswith(name + ": ")
               and reason in r.stderr, c,
               f"{name} {' '.join(args)} exits 1 ({reason})", r)


def check_stdin(t, w):
    c = "stdin"
    smoke = os.path.join(w, "smoke")
    r = run([t.sd, "--sf", "8"], stdin=smoke + ".bin")
    piped = decodes(c, "tnb_streamd < smoke.bin", r, 3)
    piped_stats = stream_stats(r)
    r = run([t.sd, "--sf", "8", "--in", smoke + ".bin"])
    expect(r.returncode == 0 and pkts(r) == piped, c,
           "pkt lines differ between stdin and --in", r)
    expect(piped_stats and stream_stats(r) == piped_stats, c,
           "stream stats differ between stdin and --in")


def check_wire(t, w):
    c = "wire"
    wire = os.path.join(w, "wire")
    gen(t, c, wire, "--sf", "8", "--duration", "1.0", "--load", "8",
        "--seed", "3", "--wire-format")
    r = run([t.sd, "--sf", "8", "--wire-format"], stdin=wire + ".bin")
    decoded = set()
    for l in pkts(r):
        m = re.search(r" node=(\d+) seq=(\d+)", l)
        decoded.add(m.groups() if m else l)
    with open(wire + ".csv") as f:
        truth = {tuple(row.split(",")[:2]) for row in f.read().splitlines()[1:]}
    bogus = decoded - truth
    expect(not bogus, c, f"decoded packets not in the ground truth: {bogus}")
    expect(r.returncode == 0 and len(decoded) >= 3, c,
           f"decoded {len(decoded)} wire packets, want >= 3", r)

    c = "wire implicit"
    wirei = os.path.join(w, "wirei")
    gen(t, c, wirei, "--sf", "7", "--duration", "1.0", "--load", "3",
        "--seed", "5", "--wire-format", "--implicit")
    r = run([t.sd, "--sf", "7", "--wire-format", "--implicit-len", "16"],
            stdin=wirei + ".bin")
    decodes(c, "tnb_streamd --implicit-len 16", r, 2)


def check_scheme_grid(t, w):
    c = "scheme grid"
    smoke = os.path.join(w, "smoke")
    grids = {}
    for jobs in ("1", "8"):
        r = run([t.ev, "--in", smoke, "--sf", "8", "--scheme", "all",
                 "--jobs", jobs])
        expect(r.returncode == 0, c, f"tnb_eval --scheme all --jobs {jobs}", r)
        grids[jobs] = [l for l in r.stdout.splitlines()
                       if not l.startswith(("runs", "stage "))]
    expect(grids["1"] == grids["8"], c, "rows differ at --jobs 1 and 8")
    names = [l.split()[0] for l in grids["1"]]
    for s in SCHEMES:
        expect(names.count(s) == 1, c, f"{names.count(s)} rows for {s}")


def check_metrics(t, w):
    c = "metrics"
    trace = os.path.join(w, "metrics")
    gen(t, c, trace, "--sf", "8", "--duration", "1.0", "--load", "20",
        "--seed", "3")
    final = os.path.join(w, "final.prom")
    snap = os.path.join(w, "snap")
    r = run([t.sd, "--sf", "8", "--in", trace + ".bin", "--stats-interval",
             "0.2", "--metrics-file", final, "--metrics-history", snap])
    expect(r.returncode == 0, c, "tnb_streamd --metrics-history", r)
    with_metrics = pkts(r)
    snaps = sorted(glob.glob(snap + ".*.prom"))
    expect(snaps, c, "--metrics-history wrote no snapshot")
    required = ['stage="detect"', 'stage="frac_sync"', 'stage="sigcalc"',
                'stage="assign"', 'stage="header"', 'stage="bec"',
                'stage="second_pass"', "tnb_ring_pushed_samples_total",
                "tnb_stream_segments_total"]
    r = run([t.promcheck] + [a for s in required for a in ("--require", s)]
            + snaps + [final])
    expect(r.returncode == 0, c, "tnb_promcheck", r)

    r = run([t.sd, "--sf", "8", "--in", trace + ".bin", "--stats-interval",
             "0"])
    plain = decodes(c, "tnb_streamd --stats-interval 0", r, 3)
    expect(with_metrics == plain, c,
           "pkt lines differ with and without metrics")


def check_impair(t, w):
    c = "impair zero"
    smoke = os.path.join(w, "smoke")
    zero = os.path.join(w, "zero")
    gen(t, c, zero, "--sf", "8", "--duration", "1.0", "--load", "8",
        "--seed", "3",
        "--impair", "phase_noise,linewidth_hz=0",
        "--impair", "iq_imbalance,gain_db=0,phase_deg=0",
        "--impair", "quantize,bits=0", "--impair", "clock_drift,ppm=0",
        "--impair", "inter_sf,sf=10,pps=0", "--impair", "doppler,hz=0")
    for ext in (".bin", ".csv"):
        expect(os.path.exists(zero + ext) and
               filecmp.cmp(smoke + ext, zero + ext, shallow=False), c,
               f"zero-severity chain changes the {ext}")

    c = "impair stream"
    mild = os.path.join(w, "mild")
    gen(t, c, mild, "--sf", "8", "--duration", "1.0", "--load", "8",
        "--seed", "3",
        "--impair", "phase_noise,linewidth_hz=100",
        "--impair", "iq_imbalance,gain_db=0.5,phase_deg=2",
        "--impair", "clock_drift,ppm=10", "--impair", "doppler,hz=100")
    r = run([t.sd, "--sf", "8", "--impair", "quantize,bits=8"],
            stdin=mild + ".bin")
    decodes(c, "tnb_streamd --impair quantize,bits=8", r, 3)

    c = "impair eval"
    r = run([t.ev, "--in", mild, "--sf", "8", "--scheme", "tnb",
             "--impair", "quantize,bits=8", "--impair", "clock_drift,ppm=20"])
    expect(r.returncode == 0 and re.search(r"^TnB ", r.stdout, re.M), c,
           "no TnB row", r)

    c = "bursty"
    bursty = os.path.join(w, "bursty")
    gen(t, c, bursty, "--sf", "8", "--duration", "2.0", "--load", "8",
        "--seed", "5", "--traffic", "bursty")
    r = run([t.sd, "--sf", "8"], stdin=bursty + ".bin")
    decodes(c, "tnb_streamd < bursty.bin", r, 3)


def check_fft_backend(t, w):
    c = "fft backend"
    simd = os.path.join(w, "simd")
    gen(t, c, simd, "--sf", "8", "--duration", "0.5", "--load", "8",
        "--seed", "3")
    for backend in ("auto", "scalar"):
        r = run([t.ev, "--in", simd, "--sf", "8", "--fft-backend", backend])
        expect(r.returncode == 0 and "fft_backend=" in r.stdout, c,
               f"tnb_eval --fft-backend {backend}", r)


def check_fleet(t, w):
    c = "fleet"
    fleet = os.path.join(w, "fleet")
    gen(t, c, fleet, "--channels", "8", "--sf", "8", "--duration", "1.0",
        "--load", "6", "--seed", "7")
    lines, spans, last = {}, {}, {}
    for lanes in ("1", "8"):
        r = run([t.sd, "--in", fleet + ".bin", "--channels", "8", "--sf", "8",
                 "--lanes", lanes])
        expect(r.returncode == 0, c, f"tnb_streamd --lanes {lanes}", r)
        lines[lanes] = pkts(r)
        last[lanes] = last_stats(r)
        m = re.search(r'"channels":\{.*\},"ring"', last[lanes])
        spans[lanes] = m.group(0) if m else ""
    expect(lines["1"] == lines["8"], c, "pkt lines differ at --lanes 1 and 8")
    expect(len(lines["8"]) >= 8, c, f"decoded {len(lines['8'])} packets")
    expect(spans["8"] != "" and spans["1"] == spans["8"], c,
           "channel stats differ at --lanes 1 and 8")
    iq = {k: int(v) for k, v in re.findall(
        r'"(resident_iq_high_water|resident_iq_bound|wideband_samples_in)":'
        r'(\d+)', last["8"])}
    expect(len(iq) == 3 and
           iq["resident_iq_high_water"] <= iq["resident_iq_bound"] and
           iq["resident_iq_high_water"] < iq["wideband_samples_in"], c,
           f"resident IQ not under its bound and the composite's length: {iq}")


def check_benches(t):
    for bench in t.run:
        r = run([bench])
        expect(r.returncode == 0, "benches", os.path.basename(bench), r)


def main():
    ap = argparse.ArgumentParser()
    for tool in ("gen", "ev", "sd", "promcheck", "workdir"):
        ap.add_argument(tool)
    ap.add_argument("benches", nargs="*")
    ap.add_argument("--run", action="append", default=[])
    t = ap.parse_args()
    w = t.workdir
    shutil.rmtree(w, ignore_errors=True)
    os.makedirs(w)

    check_contract(t, w)
    # The stdin, scheme-grid and zero-severity checks share this trace.
    gen(t, "stdin", os.path.join(w, "smoke"), "--sf", "8", "--duration",
        "1.0", "--load", "8", "--seed", "3")
    check_stdin(t, w)
    check_wire(t, w)
    check_scheme_grid(t, w)
    check_metrics(t, w)
    check_impair(t, w)
    check_fft_backend(t, w)
    check_fleet(t, w)
    check_benches(t)

    for f in failures:
        print("cli_smoke: FAIL " + f)
    if failures:
        raise SystemExit(1)
    print("cli_smoke: ok")


if __name__ == "__main__":
    main()
