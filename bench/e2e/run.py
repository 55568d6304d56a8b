#!/usr/bin/env python3
"""Build and run the end-to-end benchmark, or compare two sets of runs.

Run one workload (from the repository root):

    python3 bench/e2e/run.py --workload fig4-nuc --seed 1 --seconds 20 --trace 0

The first run configures and builds bench_e2e from the checkout's sources
into .bench_build/ (Release, Ninja when available); later runs only check
that the build is current. The program's "name value unit" lines pass
through, and the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). The full record of each run, with
provenance, goes to .bench_out/; --out FILE also appends it to FILE.

Compare two record sets with the BENCHMARK.json bounds (exit 1 on a
regression of B against A):

    python3 bench/e2e/run.py --compare A.jsonl B.jsonl
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "bgl"
RESULTS = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"bench_e2e: {message}", file=sys.stderr)
    sys.exit(1)


def declared():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then bring bench_e2e up to date; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent first runs build once
        try:
            if not (BUILD / "CMakeCache.txt").is_file():
                generator = ["-G", "Ninja"] if shutil.which("ninja") else []
                subprocess.run(
                    ["cmake", "-S", str(ROOT), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCMAKE_PROJECT_INCLUDE={HERE / 'attach.cmake'}"],
                    stdout=sys.stderr, check=True)
            subprocess.run(
                ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs],
                stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as error:
            fail(f"build failed: {error}")
    return BUILD / "bench_e2e"


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def provenance():
    """Commit and dirty flag of the checkout, when it is a git work tree."""
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown", False
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def run(args):
    spec = declared()
    section = "per_layer" if args.trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in spec[section]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    exe = build()

    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.jsonl"
    record_path.unlink(missing_ok=True)
    commit, dirty = provenance()
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(record_path), "--commit", commit,
               "--dirty", "1" if dirty else "0"]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if not record_path.is_file():
        fail(f"{args.workload} exited with {code} and wrote no record")
    record = json.loads(record_path.read_text().splitlines()[-1])
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")

    metrics = {}
    for name, unit in names.items():
        metric = record["metrics"].get(name)
        if metric is None or metric["unit"] != unit:
            fail(f"{args.workload} did not report {name} in {unit}")
        metrics[name] = {"value": metric["value"], "unit": unit}
    print(json.dumps({"correct": record["correct"] and code == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(code)


def load(path):
    """Untraced run records of a JSON-lines file, by workload."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if not record["traced"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def compare(path_a, path_b):
    """Median and quartiles of each side per workload and e2e metric.

    B regresses when its median is worse than A's by more than the bound.
    A metric is unresolved when A's own quartile spread, as a share of its
    median, exceeds the bound, unless every run of B reads better than
    every run of A.
    """
    a_runs, b_runs = load(path_a), load(path_b)
    regressions = unresolved = 0
    print(f"{'workload':16} {'metric':15} {'A q1/median/q3':>32} "
          f"{'B q1/median/q3':>32} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in declared()["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in a_runs[workload]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]]
            if len(a) < 2 or len(b) < 2:
                print(f"{workload:16} {name:15} needs two runs a side")
                unresolved += 1
                continue
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            spread = (qa[2] - qa[0]) / ma
            b_always_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > bound and not b_always_better:
                verdict = f"unresolved (A spread {spread:.3f})"
                unresolved += 1
            else:
                verdict = "ok"
            sides = [f"{q[0]:.4g}/{m:.4g}/{q[2]:.4g}" for q, m in ((qa, ma), (qb, mb))]
            print(f"{workload:16} {name:15} {sides[0]:>32} {sides[1]:>32} "
                  f"{worse:+8.3f} {bound:6.2f}  {verdict}")
    print(f"{regressions} regression(s), {unresolved} unresolved")
    sys.exit(1 if regressions else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also append the run record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    run(args)


if __name__ == "__main__":
    main()
