#!/usr/bin/env python3
"""Self-test of the benchmark on 64-rank instances of every workload.

    python3 perfbench/selftest.py

For each workload run.py knows it checks that run.py prints every metric
named in BENCHMARK.json with its declared unit, in both modes, with zero failed
operations; then that a deliberately broken expectation (--break-check) is
reported as a failed operation. Takes well under a minute once the driver
is built.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # importing run.py must leave no __pycache__
from run import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--ranks", "64", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    assert proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    # Every workload the driver knows, also the one kept out of the gated set.
    for w in WORKLOADS:
        for trace in (0, 1):
            res = run(w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want[trace], f"{w} trace {trace}: metrics {got}"
            assert res["correct"] and res["failed"] == 0, f"{w}: {res}"
            assert res["attempted"] >= 2, f"{w}: {res}"
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (w, k)
            if trace == 0:
                zero = [k for k, v in res["metrics"].items() if v["value"] <= 0]
                assert not zero, f"{w}: end-to-end metrics at zero: {zero}"
        broken = run(w, 0, "--break-check")
        assert not broken["correct"] and broken["failed"] >= 1, f"{w}: {broken}"
        print(f"ok  {w}: {len(want[0])} end-to-end + {len(want[1])} per-layer "
              f"metrics, broken expectation -> {broken['failed']} failed op(s)")
    print("selftest passed")


if __name__ == "__main__":
    main()
