#!/usr/bin/env python3
"""Compare two manytiers batch reports or bench logs, flag regressions.

Two input modes, auto-detected per file:

  * report mode — the BATCH_JSON line format written by `manytiers_batch`
    (BENCH_JSON breadcrumbs fold in as run timing). Checks that the two
    runs cover the same grid and reports capture regressions (any
    per-cell min/max envelope value that moved by more than
    --capture-tol; default 0: bit-exact, which the engine guarantees for
    same-grid runs at any shard/thread count) and latency regressions.
  * bench mode — pure BENCH_JSON trajectory logs, as emitted by the
    bench binaries (e.g. `bench_sweep_scaling > run.log`). Records are
    keyed by (bench name, threads); repeated keys collapse to their
    median wall_ms. Only the latency gates apply.

A latency regression is a wall_ms that grew by more than
--latency-factor AND --latency-min-ms (timing is noisy, so both gates
must trip; absent timing fields are skipped). Mixing modes — a batch
report against a bench log — is an error.

Bench records carrying a "p99_us" field (the overload record written
by `bench_serve_load --overload`) are diffed on their tail instead of
wall-clock time: a median p99_us that grew past --latency-factor AND
--curve-min-us is a HARD failure (exit 1 even without --fail-on-latency;
the accepted requests' tail is the contract the request deadline
bounds), and an achieved_per_s drop is an informational note.

Bench mode can also run as a speedup gate: --min-speedup X requires the
candidate to be at least X times faster than the baseline on every
shared key (exit 1 otherwise). Used by tools/check.sh to hold the
divide-and-conquer DP kernel to a same-machine advantage over the naive
kernel, where both logs come from the same host and the usual
cross-machine noise caveats do not apply.

Exit status: 0 clean, 1 capture regression (or latency regression with
--fail-on-latency), 2 usage/incomparable-input errors (mismatched grids,
mixed modes, missing bench keys).

Examples:
  bench_diff.py golden_smoke.batch fresh.batch
  bench_diff.py old.batch new.batch --capture-tol 1e-12 --fail-on-latency
  bench_diff.py sweep_scaling.old.log sweep_scaling.new.log --fail-on-latency
"""

import argparse
import json
import sys


def parse_report(path):
    report = {"grid": None, "cells": {}, "order": [], "timing": None,
              "points": {}}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("BATCH_JSON "):
                record = json.loads(line[len("BATCH_JSON "):])
            elif line.startswith("BENCH_JSON "):
                # Bench breadcrumbs carry timing only; fold the first one
                # in as run timing if the report itself has none.
                record = json.loads(line[len("BENCH_JSON "):])
                record["type"] = "timing"
            else:
                continue
            kind = record.get("type")
            if kind == "grid":
                if report["grid"] is not None:
                    raise ValueError(f"{path}: duplicate grid record")
                report["grid"] = record
            elif kind == "cell":
                key = record["key"]
                if key in report["cells"]:
                    raise ValueError(f"{path}: duplicate cell {key!r}")
                report["cells"][key] = record
                report["order"].append(key)
            elif kind == "point":
                # Schema v2 per-point capture vectors (--per-point runs).
                key = record["cell"]
                if key not in report["cells"]:
                    raise ValueError(
                        f"{path}: point record for unknown cell {key!r}")
                detail = report["points"].setdefault(key, {})
                if record["point"] in detail:
                    raise ValueError(
                        f"{path}: duplicate point {record['point']} in cell "
                        f"{key!r}")
                detail[record["point"]] = record["capture"]
            elif kind == "timing":
                if report["timing"] is None:
                    report["timing"] = record
    if report["grid"] is None:
        raise ValueError(f"{path}: no BATCH_JSON grid record found")
    return report


def detect_mode(path):
    """'report' if the file has BATCH_JSON lines, else 'bench'."""
    has_bench = False
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("BATCH_JSON "):
                return "report"
            if line.startswith("BENCH_JSON "):
                has_bench = True
    if has_bench:
        return "bench"
    raise ValueError(f"{path}: no BATCH_JSON or BENCH_JSON lines found")


def parse_bench_log(path):
    """BENCH_JSON trajectory -> {(bench, threads): {n, samples}} in order."""
    log = {"keys": [], "records": {}}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("BENCH_JSON "):
                continue
            record = json.loads(line[len("BENCH_JSON "):])
            if record.get("wall_ms") is None:
                # Time-series sidecar records (stats polls and the like)
                # carry no timing sample; they ride along for humans and
                # never enter the gates.
                continue
            key = (record["bench"], record.get("threads", 1))
            entry = log["records"].get(key)
            if entry is None:
                entry = {"n": record.get("n"), "samples": [],
                         "max_rss_kb": None, "tail": {}}
                log["records"][key] = entry
                log["keys"].append(key)
            elif entry["n"] != record.get("n"):
                raise ValueError(
                    f"{path}: bench {key[0]!r} threads={key[1]} re-run with "
                    f"different n ({entry['n']} vs {record.get('n')})")
            entry["samples"].append(record["wall_ms"])
            if record.get("p99_us") is not None:
                # Overload record (bench_serve_load): collect the gated
                # fields; repeated keys collapse to medians, same as
                # wall_ms.
                for field in ("p99_us", "achieved_per_s"):
                    if record.get(field) is not None:
                        entry["tail"].setdefault(field, []).append(
                            record[field])
            # Resource fields are newer than some logs; absent means an
            # older binary wrote the log, which stays fully comparable.
            if record.get("max_rss_kb") is not None:
                entry["max_rss_kb"] = max(entry["max_rss_kb"] or 0,
                                          record["max_rss_kb"])
    if not log["keys"]:
        raise ValueError(f"{path}: no BENCH_JSON records found")
    return log


def median(samples):
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def diff_tail(label, base, cand, factor, min_us, hard, notes):
    """Overload-record gates for one (bench, threads) key: p99 hard,
    achieved rate informational."""
    def med(entry, field):
        samples = entry["tail"].get(field)
        return median(samples) if samples else None

    old_p99, new_p99 = med(base, "p99_us"), med(cand, "p99_us")
    if new_p99 > old_p99 * factor and new_p99 - old_p99 > min_us:
        hard.append(
            f"{label}: p99 {old_p99:.1f} us -> {new_p99:.1f} us "
            f"({new_p99 / old_p99:.2f}x)")
    old_ach, new_ach = med(base, "achieved_per_s"), med(cand, "achieved_per_s")
    if (old_ach is not None and new_ach is not None
            and new_ach < old_ach * 0.95):
        notes.append(
            f"{label}: achieved {old_ach:.0f}/s -> {new_ach:.0f}/s "
            f"({new_ach / old_ach:.2f}x, informational)")


def diff_trajectory(baseline, candidate, factor, min_ms, min_speedup=None,
                    curve_min_us=200.0):
    """-> (structure_problems, latency_regressions, hard_regressions,
    notes) between logs."""
    structure, regressions, hard, notes = [], [], [], []
    for key in baseline["keys"]:
        bench, threads = key
        label = f"{bench} threads={threads}"
        cand = candidate["records"].get(key)
        if cand is None:
            structure.append(f"bench missing from candidate: {label}")
            continue
        base = baseline["records"][key]
        if base["n"] != cand["n"]:
            structure.append(
                f"{label}: n {base['n']} -> {cand['n']} (not comparable)")
            continue
        if base["tail"] and cand["tail"]:
            # Overload records: the p99 gate replaces the wall_ms gate
            # (the run's wall time is fixed by its phase durations, so
            # wall_ms growth is meaningless there).
            diff_tail(label, base, cand, factor, curve_min_us, hard, notes)
            continue
        if bool(base["tail"]) != bool(cand["tail"]):
            structure.append(
                f"{label}: p99_us record on one side only "
                "(not comparable)")
            continue
        old_ms, new_ms = median(base["samples"]), median(cand["samples"])
        if min_speedup is not None:
            # Speedup-gate mode: the candidate must beat the baseline by
            # at least min_speedup on every shared key (used to hold the
            # dc DP kernel to a same-machine advantage over naive).
            speedup = old_ms / new_ms if new_ms > 0 else float("inf")
            if speedup < min_speedup:
                regressions.append(
                    f"{label}: {old_ms:.2f} ms -> {new_ms:.2f} ms "
                    f"({speedup:.2f}x, need >= {min_speedup:g}x)")
            continue
        if new_ms > old_ms * factor and new_ms - old_ms > min_ms:
            regressions.append(
                f"{label}: {old_ms:.2f} ms -> {new_ms:.2f} ms "
                f"({new_ms / old_ms:.2f}x)")
        # Peak RSS is informational only (a process-wide high-water mark,
        # shared across benches in one binary): report growth, never fail.
        old_rss, new_rss = base.get("max_rss_kb"), cand.get("max_rss_kb")
        if old_rss and new_rss and new_rss > old_rss * 1.25:
            notes.append(
                f"{label}: max RSS {old_rss} kB -> {new_rss} kB "
                f"({new_rss / old_rss:.2f}x, informational)")
    for key in candidate["keys"]:
        if key not in baseline["records"]:
            structure.append(
                f"bench missing from baseline: {key[0]} threads={key[1]}")
    return structure, regressions, hard, notes


def diff_envelopes(baseline, candidate, tol):
    problems = []
    for key in baseline["order"]:
        base = baseline["cells"][key]
        cand = candidate["cells"].get(key)
        if cand is None:
            problems.append(f"cell missing from candidate: {key}")
            continue
        if base["points"] != cand["points"]:
            problems.append(
                f"{key}: point count {base['points']} -> {cand['points']}")
        for bound in ("min", "max"):
            a, b = base[bound], cand[bound]
            if len(a) != len(b):
                problems.append(
                    f"{key}: {bound} length {len(a)} -> {len(b)}")
                continue
            for i, (x, y) in enumerate(zip(a, b)):
                if abs(x - y) > tol:
                    problems.append(
                        f"{key}: {bound}[B={i + 1}] {x!r} -> {y!r} "
                        f"(|delta| = {abs(x - y):.3e} > tol {tol:g})")
    for key in candidate["order"]:
        if key not in baseline["cells"]:
            problems.append(f"cell missing from baseline: {key}")
    return problems


def diff_points(baseline, candidate, tol):
    """Per-point capture diff (schema v2): names the exact sweep point
    that regressed, not just the cell envelope. Cells without per-point
    detail on both sides are skipped (the envelope diff still covers
    them); a one-sided absence is reported as an info note, not a
    regression."""
    problems, notes = [], []
    for key in baseline["order"]:
        base = baseline["points"].get(key)
        cand = candidate["points"].get(key)
        if base is None and cand is None:
            continue
        if base is None or cand is None:
            side = "baseline" if base is None else "candidate"
            notes.append(f"{key}: no per-point detail in the {side} "
                         "(envelope check only)")
            continue
        for point in sorted(base):
            if point not in cand:
                problems.append(f"{key}: point {point} missing from candidate")
                continue
            a, b = base[point], cand[point]
            if len(a) != len(b):
                problems.append(
                    f"{key}: point {point} capture length {len(a)} -> "
                    f"{len(b)}")
                continue
            for i, (x, y) in enumerate(zip(a, b)):
                if abs(x - y) > tol:
                    problems.append(
                        f"{key}: point {point} capture[B={i + 1}] "
                        f"{x!r} -> {y!r} (|delta| = {abs(x - y):.3e} > "
                        f"tol {tol:g})")
        for point in sorted(cand):
            if point not in base:
                problems.append(f"{key}: point {point} missing from baseline")
    return problems, notes


def diff_latency(baseline, candidate, factor, min_ms):
    regressions = []

    def check(label, old_ms, new_ms):
        if old_ms is None or new_ms is None:
            return
        if new_ms > old_ms * factor and new_ms - old_ms > min_ms:
            regressions.append(
                f"{label}: {old_ms:.2f} ms -> {new_ms:.2f} ms "
                f"({new_ms / old_ms:.2f}x)")

    for key in baseline["order"]:
        cand = candidate["cells"].get(key)
        if cand is None:
            continue
        check(key, baseline["cells"][key].get("wall_ms"),
              cand.get("wall_ms"))
    old_t = (baseline["timing"] or {}).get("wall_ms")
    new_t = (candidate["timing"] or {}).get("wall_ms")
    check("total", old_t, new_t)
    return regressions


def diff_bench_logs(args):
    baseline = parse_bench_log(args.baseline)
    candidate = parse_bench_log(args.candidate)
    structure, regressions, hard, notes = diff_trajectory(
        baseline, candidate, args.latency_factor, args.latency_min_ms,
        args.min_speedup, args.curve_min_us)
    for line in structure:
        print(f"bench_diff: {line}", file=sys.stderr)
    for line in notes:
        print(f"bench_diff: {line}", file=sys.stderr)
    for line in regressions:
        print(f"LATENCY  {line}")
    for line in hard:
        print(f"TAIL     {line}")
    if structure:
        return 2
    if not regressions and not hard:
        if args.min_speedup is not None:
            print(f"OK: candidate >= {args.min_speedup:g}x faster than "
                  f"baseline on all {len(baseline['keys'])} bench keys")
        else:
            print(f"OK: {len(baseline['keys'])} bench trajectories match "
                  f"(factor {args.latency_factor:g}, "
                  f"min {args.latency_min_ms:g} ms)")
        return 0
    # A p99 regression is a hard failure: tail latency is the
    # service-level contract, not a noisy-trajectory warning. A failed
    # speedup gate likewise.
    if hard or args.min_speedup is not None:
        return 1
    return 1 if args.fail_on_latency else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="reference report (e.g. the golden)")
    parser.add_argument("candidate", help="report under test")
    parser.add_argument("--capture-tol", type=float, default=0.0,
                        help="allowed |delta| per envelope value (default 0)")
    parser.add_argument("--latency-factor", type=float, default=1.5,
                        help="flag wall_ms growth beyond this factor")
    parser.add_argument("--latency-min-ms", type=float, default=5.0,
                        help="ignore absolute growth below this many ms")
    parser.add_argument("--fail-on-latency", action="store_true",
                        help="exit 1 on latency regressions too")
    parser.add_argument("--curve-min-us", type=float, default=200.0,
                        help="p99_us records: ignore absolute p99 growth "
                        "below this many microseconds")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="bench mode only: require the candidate to be "
                        "at least this many times faster than the baseline "
                        "on every shared key (exit 1 otherwise); replaces "
                        "the growth gates")
    args = parser.parse_args(argv)

    try:
        modes = (detect_mode(args.baseline), detect_mode(args.candidate))
        if modes[0] != modes[1]:
            raise ValueError(
                f"mixed input modes: {args.baseline} is a {modes[0]}, "
                f"{args.candidate} is a {modes[1]}")
        if modes[0] == "bench":
            return diff_bench_logs(args)
        if args.min_speedup is not None:
            raise ValueError("--min-speedup only applies to bench logs")
        baseline = parse_report(args.baseline)
        candidate = parse_report(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2

    if baseline["grid"]["signature"] != candidate["grid"]["signature"]:
        print("bench_diff: reports cover different grids:\n"
              f"  baseline:  {baseline['grid']['signature']}\n"
              f"  candidate: {candidate['grid']['signature']}",
              file=sys.stderr)
        return 2

    capture_problems = diff_envelopes(baseline, candidate, args.capture_tol)
    point_problems, point_notes = diff_points(baseline, candidate,
                                              args.capture_tol)
    capture_problems += point_problems
    latency_problems = diff_latency(baseline, candidate, args.latency_factor,
                                    args.latency_min_ms)

    for line in point_notes:
        print(f"bench_diff: {line}", file=sys.stderr)
    for line in capture_problems:
        print(f"CAPTURE  {line}")
    for line in latency_problems:
        print(f"LATENCY  {line}")
    if not capture_problems and not latency_problems:
        detailed = sum(1 for key in baseline["order"]
                       if key in baseline["points"]
                       and key in candidate["points"])
        per_point = (f", {detailed} with per-point detail"
                     if detailed else "")
        print(f"OK: {len(baseline['order'])} cells match "
              f"(capture tol {args.capture_tol:g}{per_point}), "
              "no latency regressions")
    if capture_problems:
        return 1
    if latency_problems and args.fail_on_latency:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
