#!/usr/bin/env python3
"""Builds and runs xftl_bench, the end-to-end benchmark of the X-FTL stack.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE.jsonl]

Without --workload it runs every workload named in BENCHMARK.json, each in
its own process. It builds benchmark/ (which compiles ../src) into
build-bench/ at the checkout root, prints every metric by name with its
unit, appends one JSON record per workload to --out (default
build-bench/results.jsonl) for compare.py, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

holding the end-to-end metrics (untraced) or the per-layer metrics (--trace 1)
that BENCHMARK.json lists. Any build failure, wrong result or missing metric
exits nonzero without that line.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
# One run must end within 180 s; the first one in a checkout may also build.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """Runs cmd in its own process group and returns (code, stdout, stderr).

    On timeout the whole group is killed (make spawns compilers) and reaped
    before this fails, so no process outlives the run.
    """
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"timed out: {' '.join(cmd)}")
    return p.returncode, out, err


def build():
    """Configures (once) and builds the benchmark; serialized by a lock."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = BUILD_DIR / "CMakeCache.txt"
        if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
                not in cache.read_text():
            cache.unlink()  # configured from another checkout
        steps = [["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
                  "--target", "xftl_bench", "samples_test"]]
        if not cache.is_file():
            steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            code, out, err = run(cmd, BUILD_TIMEOUT_S)
            if code != 0:
                sys.stderr.write(out[-4000:] + err[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    # The order statistics the latency metrics rest on are checked every run.
    code, _, err = run([str(BUILD_DIR / "samples_test")], 60)
    if code != 0:
        sys.stderr.write(err)
        fail("samples_test failed")


def run_workload(workload, seed, seconds, traced, deadline):
    cmd = [str(BUILD_DIR / "xftl_bench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}"]
    if traced:
        cmd.append("--traced")
    code, out, err = run(cmd, max(1.0, deadline - time.monotonic()))
    if code != 0:
        sys.stderr.write(err)
        fail(f"{workload} failed (exit {code})")
    return json.loads(out.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads,
                    help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1,
                    help="picks the transaction stream (non-negative)")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1 reports the per-layer metrics")
    ap.add_argument("--out", type=Path, default=BUILD_DIR / "results.jsonl")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    traced = args.trace == 1
    listed = spec["per_layer"] if traced else spec["end_to_end"]

    build()
    selected = [args.workload] if args.workload else workloads
    deadline = time.monotonic() + RUN_TIMEOUT_S * len(selected)
    records = []
    for workload in selected:
        record = run_workload(workload, args.seed, args.seconds, traced, deadline)
        missing = [m["name"] for m in listed if m["name"] not in record["metrics"]]
        if missing:
            fail(f"{workload} did not report {', '.join(missing)}")
        print(f"== {workload} seed={args.seed} seconds={args.seconds} "
              f"{'traced' if traced else 'untraced'}: "
              f"{record['attempted']} txns, {record['failed']} failed")
        for name, m in record["metrics"].items():
            print(f"  {name:34s} {m['value']:>18.6f} {m['unit']}")
        records.append(record)
    with open(args.out, "a") as out:
        for record in records:
            out.write(json.dumps(record) + "\n")

    def listed_metrics(record):
        return {m["name"]: record["metrics"][m["name"]] for m in listed}

    if len(records) == 1:
        metrics = listed_metrics(records[0])
    else:
        metrics = {f"{r['workload']}/{name}": value
                   for r in records for name, value in listed_metrics(r).items()}
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
