#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark (perfbench/run.py):
# a parent revision against the working tree, on the same host in one
# session, so host drift hits both sides alike.
#
# The parent revision is exported (git archive) into WORK_DIR/parent-src,
# and each side builds perfbench into its own directory through the
# CARGO_TARGET_DIR override that perfbench/run.py honours. Then PAIRS pairs
# of one workload and seed run back to back, alternating which side goes
# first. The summary prints, per end-to-end metric of BENCHMARK.json: each
# side's median and quartiles, how many pairs the working tree won, whether
# the median gap exceeds the parent's interquartile range, and whether
# every simulated-time metric (unit sim_s) is bit-identical between sides.
#
# Usage: scripts/ab_perfbench.sh [options]
#   --rev REV          parent revision (default: HEAD)
#   --workload NAME    perfbench workload (default: ring-1024-serial)
#   --seed N           workload seed (default: 1)
#   --pairs N          number of A/B pairs (default: 10)
#   --seconds S        perfbench --seconds per run (default: 1, i.e. one
#                      repetition; the driver takes the median over reps)
#   --dir WORK_DIR     scratch directory for sources, builds and results
#                      (default: ${TMPDIR:-/tmp}/gbc-ab)
#
# Each run's JSON result lands in
# WORK_DIR/results/WORKLOAD-seedN/{parent,change}-K.json. A run clears only
# its own workload/seed directory, so A/B runs of several workloads can share
# one WORK_DIR (and reuse both builds incrementally) without overwriting each
# other's results.
set -euo pipefail

REV=HEAD
WORKLOAD=ring-1024-serial
SEED=1
PAIRS=10
SECONDS_PER_RUN=1
WORK_DIR=${TMPDIR:-/tmp}/gbc-ab

while [[ $# -gt 0 ]]; do
  case "$1" in
    --rev) REV=$2; shift 2 ;;
    --workload) WORKLOAD=$2; shift 2 ;;
    --seed) SEED=$2; shift 2 ;;
    --pairs) PAIRS=$2; shift 2 ;;
    --seconds) SECONDS_PER_RUN=$2; shift 2 ;;
    --dir) WORK_DIR=$2; shift 2 ;;
    -h|--help) sed -n '2,29p' "$0"; exit 0 ;;
    *) echo "ab_perfbench: unknown option $1" >&2; exit 2 ;;
  esac
done

ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$WORK_DIR"
WORK_DIR=$(cd "$WORK_DIR" && pwd)
PARENT_SRC=$WORK_DIR/parent-src
RESULTS=$WORK_DIR/results/$WORKLOAD-seed$SEED

# Fresh export of the parent revision (sources only; its build dir is kept).
SHA=$(git -C "$ROOT" rev-parse --verify "$REV^{commit}")
if [[ "$(cat "$WORK_DIR/parent.sha" 2>/dev/null)" != "$SHA" ]]; then
  rm -rf "$PARENT_SRC" "$WORK_DIR/parent-build"
  mkdir -p "$PARENT_SRC"
  git -C "$ROOT" archive "$SHA" | tar -x -C "$PARENT_SRC"
  echo "$SHA" > "$WORK_DIR/parent.sha"
fi
rm -rf "$RESULTS"
mkdir -p "$RESULTS"

# run_side NAME SRC_ROOT OUT_JSON
run_side() {
  local side=$1 src=$2 out=$3
  CARGO_TARGET_DIR=$WORK_DIR/$side-build \
    python3 "$src/perfbench/run.py" --workload "$WORKLOAD" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1 > "$out"
}

echo "ab_perfbench: $WORKLOAD seed $SEED, $PAIRS pairs, parent ${SHA:0:12}"
for ((k = 0; k < PAIRS; ++k)); do
  if ((k % 2 == 0)); then
    order=(parent change)
  else
    order=(change parent)
  fi
  for side in "${order[@]}"; do
    if [[ $side == parent ]]; then src=$PARENT_SRC; else src=$ROOT; fi
    run_side "$side" "$src" "$RESULTS/$side-$k.json"
  done
  echo "  pair $((k + 1))/$PAIRS done (${order[0]} first)"
done

python3 - "$ROOT/BENCHMARK.json" "$RESULTS" "$PAIRS" <<'EOF'
import json
import statistics
import sys

bench, results, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
metrics = json.load(open(bench))["end_to_end"]


def load(side, k):
    res = json.load(open(f"{results}/{side}-{k}.json"))
    return res, {m: v["value"] for m, v in res["metrics"].items()}


runs = {s: [load(s, k) for k in range(pairs)] for s in ("parent", "change")}
for side, rs in runs.items():
    failed = sum(r["failed"] for r, _ in rs)
    wrong = sum(not r["correct"] for r, _ in rs)
    print(f"{side}: {failed} failed operations, {wrong} incorrect runs")


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, med, q3


print(f"{'metric':<18} {'parent med [Q1,Q3]':>30} {'change med [Q1,Q3]':>30}"
      f" {'delta':>8} {'wins':>6} {'gap>IQR':>8}")
sim_identical = True
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [v[name] for _, v in runs["parent"]]
    c = [v[name] for _, v in runs["change"]]
    pq, cq = quartiles(p), quartiles(c)
    wins = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
    gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
    delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
    if m["unit"] == "sim_s":
        same = p == c
        sim_identical &= same
        verdict = "identical" if same else "DIFFERS"
        print(f"{name:<18} {pq[1]:>30.9f} {cq[1]:>30.9f} {'':>8} {'':>6}"
              f" {verdict:>8}")
        continue
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g},{q[2]:.4g}]"
    print(f"{name:<18} {fmt(pq):>30} {fmt(cq):>30} {delta:>+7.1f}%"
          f" {wins:>3}/{pairs:<2} {'yes' if gap > pq[2] - pq[0] else 'no':>8}")
print("every sim_s metric bit-identical:", "yes" if sim_identical else "NO")
EOF
