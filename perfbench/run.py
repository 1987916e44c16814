#!/usr/bin/env python3
"""End-to-end benchmark of manytiers: build the programs from source and
run one workload, or check the benchmark's own steadiness.

  python3 perfbench/run.py --workload batch-costmodels --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --repeat 5 --seed 100 [--workload serve-quotes]
  python3 perfbench/run.py --make-reference

Run from the repository root. The build is a Release build of
perfbench/CMakeLists.txt (the repo's src/ tree plus the harness) in
$CARGO_TARGET_DIR, default .bench_build. A run prints the harness's
metric lines and details, then as its last line one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1
(0 for a layer that does no work on the workload). It exits non-zero on
a wrong answer, a failed guard or a failed build.

--repeat N runs each workload N times with seeds seed..seed+N-1 and, for
every end-to-end metric, prints the median, the quartiles and their
spread (q3 - q1) / median against the metric's bound, naming every
metric over its bound (set-up time is gated on its median only, so its
spread is shown but not judged).
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference" / "costmodels_n1500.tsv"
WORKLOADS = ("batch-costmodels", "serve-quotes", "serve-reload")
RUN_TIMEOUT_S = 160  # the run must end within 180 s


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no src/ tree next to {BENCH_DIR.name}/: nothing to build")
        sys.exit(2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target",
         "perfbench_harness", "manytiers_serve_bin"],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed")
            sys.exit(1)
    return out


def commit_id():
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    # An exported checkout: identify the measured sources by content.
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_harness(out, args):
    """Run the harness; return (exit code, PERFBENCH_RESULT object or None)."""
    cmd = [str(out / "perfbench_harness"), *args,
           "--serve-bin", str(out / "manytiers" / "manytiers_serve"),
           "--reference", str(REFERENCE),
           # Relative, so socket paths stay short wherever the checkout is.
           "--rundir", os.path.relpath(out / "run", ROOT)]
    env = dict(os.environ, MANYTIERS_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def contract_line(result, spec, trace):
    """The result restricted to BENCHMARK.json's metric list, in its order."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(result["metrics"]) - names)
    if extra:
        raise ValueError(f"metrics missing from BENCHMARK.json: {extra}")
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} not reported")
            got = {"value": 0, "unit": m["unit"]}  # layer idle on this workload
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_once(out, spec, commit, workload, seed, seconds, trace):
    code, result = run_harness(out, [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--commit", commit])
    if result is None:
        return (code or 1), None
    line = contract_line(result, spec, trace)
    return code, line


def steadiness(out, spec, commit, workloads, first_seed, repeat, seconds):
    over, failures = [], []
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(first_seed, first_seed + repeat):
            code, line = run_once(out, spec, commit, workload, seed, seconds, 0)
            if code != 0 or line is None or not line["correct"]:
                failures.append(f"{workload} seed {seed}")
                continue
            for name, metric in line["metrics"].items():
                values[name].append(metric["value"])
        print(f"\n== {workload}: {repeat} runs, seeds {first_seed}..{first_seed + repeat - 1}")
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            gated = m["name"] != "setup_s"
            flag = ""
            if gated and spread > m["bound"]:
                flag = "  OVER BOUND"
                over.append(f"{workload}/{m['name']}")
            elif not gated:
                flag = "  (median-gated)"
            print(f"  {m['name']:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}{flag}")
    for name in over:
        print(f"over its bound: {name}")
    for name in failures:
        print(f"failed run: {name}")
    print(json.dumps({"steady": not over and not failures, "over_bound": over,
                      "failed_runs": failures}))
    return 0 if not over and not failures else 1


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness self-check: runs per workload")
    parser.add_argument("--make-reference", action="store_true",
                        help=f"regenerate {REFERENCE.relative_to(ROOT)}")
    args = parser.parse_args()

    out = build()
    if args.make_reference:
        code, _ = run_harness(out, ["--make-reference", str(REFERENCE)])
        return code
    commit = commit_id()
    if args.repeat > 0:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(out, spec, commit, workloads, args.seed, args.repeat,
                          args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    code, line = run_once(out, spec, commit, args.workload, args.seed,
                          args.seconds, args.trace)
    if line is None:
        log(f"{args.workload} produced no result")
        return code
    print(json.dumps(line), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
