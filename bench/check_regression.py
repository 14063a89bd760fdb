#!/usr/bin/env python3
"""CI bench-regression gate.

Compares a freshly measured bench JSON (written by `micro_sat --json`)
against the committed reference and fails when the calibrated
geometric-mean slowdown exceeds the tolerance.

Wall clocks are not comparable across machines (the committed baseline
is recorded wherever the last perf-relevant PR was developed; CI runs on
whatever runner generation GitHub hands out), so the gate calibrates:
the deterministic pure-UP benchmarks (names starting with `up-`) are
conflict-free propagation waves whose wall time is a machine-speed
probe, and the gated score is

    geomean(search benchmarks' slowdown) / geomean(up-* slowdown).

A uniformly slower runner cancels out; a code change that slows search
does not. The calibration probes themselves are guarded separately: the
`propagations` / `watch_bytes_visited` counters recorded for them are
deterministic for identical code, so any drift there means the code a
probe runs changed its work (the propagation core for `up-*`, or the
engine's search for an engine probe such as `seq-direct`), and the
committed baseline must be re-recorded in the same change (which
re-anchors the gate).

Benchmarks present in the baseline but missing from the current run are
a hard error: dropping the slow cases must not let a regression pass.

A second mode gates A/B benches (micro_incremental): records come in
`<case>/off` + `<case>/on` pairs, and the gated score is the geomean
off/on wall ratio (the A/B *speedup*), which is machine-independent by
construction — no calibration probes needed. The gate fails when the
current speedup falls more than the tolerance below the committed one,
or below an optional absolute floor (--min-speedup).

Usage:
  check_regression.py --baseline bench/BENCH_micro_sat.json \
                      --current /tmp/BENCH_micro_sat.json \
                      [--tolerance 0.15] [--calibration-prefix up-]
  check_regression.py --mode ab --baseline bench/BENCH_micro_incremental.json \
                      --current /tmp/BENCH_micro_incremental.json \
                      [--tolerance 0.15] [--min-speedup 1.05]

Exit status: 0 = within tolerance, 1 = regression, 2 = bad input.
"""

import argparse
import contextlib
import json
import math
import signal
import sys

# Die quietly when the consumer closes the pipe (e.g. `... | head`).
with contextlib.suppress(AttributeError, ValueError):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# Deterministic-for-identical-code counters of the calibration probes.
GUARDED_COUNTERS = ("propagations", "watch_bytes_visited")


def load_records(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    records = {}
    for rec in data.get("records", []):
        name = rec.get("name")
        wall = rec.get("wall_ms")
        if isinstance(name, str) and isinstance(wall, (int, float)) and wall > 0:
            records[name] = {
                "wall_ms": float(wall),
                "counters": rec.get("counters", {}),
            }
    if not records:
        print(f"error: no usable records in {path}", file=sys.stderr)
        sys.exit(2)
    return records


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ab_speedups(records, off_suffix, on_suffix):
    """Per-case off/on *throughput* ratio for paired A/B records.

    The two legs may legitimately perform different numbers of oracle
    calls (a warm start changes the search trajectory), so the gated
    quantity is per-call latency (wall_ms / sat_calls) — the same
    calls-per-second metric micro_incremental prints — falling back to
    raw wall time only when a record carries no sat_calls counter.
    """
    def per_call(rec):
        calls = rec["counters"].get("sat_calls")
        if isinstance(calls, (int, float)) and calls > 0:
            return rec["wall_ms"] / calls
        return rec["wall_ms"]

    speedups = {}
    for name, rec in records.items():
        if not name.endswith(off_suffix):
            continue
        case = name[: -len(off_suffix)]
        on = records.get(case + on_suffix)
        if on is None:
            print(f"error: {name} has no {case}{on_suffix} pair",
                  file=sys.stderr)
            sys.exit(2)
        speedups[case] = per_call(rec) / per_call(on)
    if not speedups:
        print("error: no A/B record pairs found", file=sys.stderr)
        sys.exit(2)
    return speedups


def check_ab(base, cur, tolerance, min_speedup):
    """Gate the A/B speedup (machine-independent) instead of wall time."""
    base_sp = ab_speedups(base, "/off", "/on")
    cur_sp = ab_speedups(cur, "/off", "/on")
    missing = sorted(set(base_sp) - set(cur_sp))
    if missing:
        print(f"error: A/B cases missing from current run: {missing}",
              file=sys.stderr)
        sys.exit(2)
    common = sorted(set(base_sp) & set(cur_sp))
    print(f"{'case':<26}{'base speedup':>14}{'cur speedup':>14}")
    for name in common:
        print(f"{name:<26}{base_sp[name]:>13.2f}x{cur_sp[name]:>13.2f}x")
    base_geo = geomean([base_sp[n] for n in common])
    cur_geo = geomean([cur_sp[n] for n in common])
    floor = base_geo / (1.0 + tolerance)
    print(f"\ngeomean A/B speedup: committed {base_geo:.3f}x, "
          f"current {cur_geo:.3f}x (floor {floor:.3f}x"
          + (f", absolute floor {min_speedup:.2f}x" if min_speedup else "")
          + ")")
    failed = False
    if cur_geo < floor:
        print(f"FAIL: A/B speedup {cur_geo:.3f}x fell more than "
              f"{tolerance:.0%} below the committed {base_geo:.3f}x",
              file=sys.stderr)
        failed = True
    if min_speedup and cur_geo < min_speedup:
        print(f"FAIL: A/B speedup {cur_geo:.3f}x is below the absolute "
              f"floor {min_speedup:.2f}x", file=sys.stderr)
        failed = True
    if failed:
        sys.exit(1)
    print("OK: within tolerance")
    sys.exit(0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="committed reference JSON, e.g. "
                         "bench/BENCH_micro_sat.json")
    ap.add_argument("--current", required=True,
                    help="freshly measured JSON to check")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed calibrated geomean slowdown (default 0.15)")
    ap.add_argument("--calibration-prefix", default="up-",
                    help="benchmark-name prefix of the machine-speed probes")
    ap.add_argument("--mode", choices=("wall", "ab"), default="wall",
                    help="wall: calibrated wall-time gate; ab: paired "
                         "off/on speedup gate (machine-independent)")
    ap.add_argument("--min-speedup", type=float, default=0.0,
                    help="ab mode: absolute geomean speedup floor")
    args = ap.parse_args()

    base = load_records(args.baseline)
    cur = load_records(args.current)

    if args.mode == "ab":
        check_ab(base, cur, args.tolerance, args.min_speedup)
        return

    missing = sorted(set(base) - set(cur))
    if missing:
        print(f"error: benchmarks missing from current run: {missing}\n"
              "(removing or renaming cases requires re-recording "
              f"{args.baseline} in the same change)", file=sys.stderr)
        sys.exit(2)
    extra = sorted(set(cur) - set(base))
    if extra:
        print(f"warning: benchmarks not in the committed baseline are NOT "
              f"gated: {extra}\n(re-record {args.baseline} to "
              "bring them under the gate)")
    common = sorted(set(base) & set(cur))

    print(f"{'benchmark':<16}{'base[ms]':>12}{'cur[ms]':>12}{'ratio':>9}")
    ratios = {}
    for name in common:
        r = cur[name]["wall_ms"] / base[name]["wall_ms"]  # > 1 = slower
        ratios[name] = r
        tag = "  (calibration)" if name.startswith(args.calibration_prefix) \
            else ""
        print(f"{name:<16}{base[name]['wall_ms']:>12.2f}"
              f"{cur[name]['wall_ms']:>12.2f}{r:>8.2f}x{tag}")

    calib_names = [n for n in common if n.startswith(args.calibration_prefix)]
    gated_names = [n for n in common if n not in calib_names]
    if not gated_names:
        print("error: no gated benchmarks outside the calibration set",
              file=sys.stderr)
        sys.exit(2)

    # Guard the calibration probes: their counters are deterministic, so
    # drift means the code a probe runs changed without a re-recorded
    # baseline — calibration would silently absorb exactly that change.
    failed = False
    for name in calib_names:
        for key in GUARDED_COUNTERS:
            b = base[name]["counters"].get(key)
            c = cur[name]["counters"].get(key)
            if b != c:
                print(f"FAIL: calibration probe '{name}': deterministic "
                      f"counter '{key}' drifted ({b} -> {c}); the code this "
                      "probe runs changed its work (the propagation core, "
                      "or the search of the engine it runs) — re-record "
                      f"{args.baseline} in this change", file=sys.stderr)
                failed = True

    machine = geomean([ratios[n] for n in calib_names]) if calib_names else 1.0
    raw = geomean([ratios[n] for n in gated_names])
    score = raw / machine
    limit = 1.0 + args.tolerance
    print(f"\nmachine-speed factor (geomean over {len(calib_names)} "
          f"calibration probes): {machine:.3f}x")
    print(f"raw geomean slowdown over {len(gated_names)} gated benchmarks: "
          f"{raw:.3f}x")
    print(f"calibrated slowdown: {score:.3f}x (limit {limit:.2f}x)")
    if score > limit:
        print(f"FAIL: calibrated geomean regression {score:.3f}x exceeds "
              f"{limit:.2f}x", file=sys.stderr)
        failed = True
    if failed:
        sys.exit(1)
    print("OK: within tolerance")
    sys.exit(0)


if __name__ == "__main__":
    main()
