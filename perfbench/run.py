#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ring-1024-serial --seed 1 \
        --seconds 55 --trace 0

The driver (perfbench/driver.cpp) is configured and built under
.bench_build/ on first use (about a minute on 4 CPUs) and rebuilt
incrementally afterwards. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
traced run's host-time spans are written to .bench_build/spans/ in
chrome://tracing format.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ring-1024-serial", "ring-2048-sharded", "staged-faults-1024")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the driver; returns its path."""
    env = dict(os.environ)
    # Keep compiler temporaries inside the checkout.
    env["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log = open(os.path.join(out, "build.log"), "w")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log, env=env).returncode != 0:
            sys.exit(f"perfbench: configure failed, see {log.name}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log, env=env).returncode != 0:
        sys.exit(f"perfbench: build failed, see {log.name}")
    return os.path.join(out, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ranks", type=int, default=0,
                    help="scale every workload to this many ranks (self-test)")
    ap.add_argument("--break-check", action="store_true",
                    help="plant a wrong expected hash (self-test)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "sim_cluster.hpp")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    driver = build(out)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.ranks:
        cmd += ["--ranks", str(args.ranks)]
    if args.break_check:
        cmd.append("--break-check")
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: driver exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        sys.exit("perfbench: malformed driver result")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
