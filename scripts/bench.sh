#!/usr/bin/env bash
# Reproducible benchmark trajectory: regenerates every paper figure,
# runs the ablations, and produces the machine-readable planner-scaling,
# cluster shard-scaling, network-serving, adaptive-scheduling,
# scenario-sweep and storage-calibration reports (BENCH_planner.json,
# BENCH_cluster.json, BENCH_serve_net.json, BENCH_sched.json,
# BENCH_scenarios.json and BENCH_storage.json at the repo root).
# The network-serving report comes from scripts/bench_net.sh, which runs
# the serving benchmark (servebench/, its own cargo workspace) on its
# three workloads and can regenerate that report alone.
#
# Usage:
#   scripts/bench.sh                    # full run (minutes)
#   scripts/bench.sh --smoke            # scaled-down run (seconds; CI gate)
#   scripts/bench.sh --out F            # write the planner JSON to F instead
#   scripts/bench.sh --cluster-out F    # write the cluster JSON to F instead
#   scripts/bench.sh --net-out F        # write the net-serving JSON to F instead
#   scripts/bench.sh --sched-out F      # write the scheduling JSON to F instead
#   scripts/bench.sh --scenarios-out F  # write the scenario JSON to F instead
#   scripts/bench.sh --storage-out F    # write the storage JSON to F instead
#
# Every bin is seeded and deterministic; only the wall-clock timings in
# the JSON reports vary across hosts (BENCH_planner.json and
# BENCH_serve_net.json record the host's hardware parallelism so
# readers can tell which regime produced them).
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
OUT="BENCH_planner.json"
CLUSTER_OUT="BENCH_cluster.json"
NET_OUT="BENCH_serve_net.json"
SCHED_OUT="BENCH_sched.json"
SCENARIOS_OUT="BENCH_scenarios.json"
STORAGE_OUT="BENCH_storage.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --out)
      shift
      [[ $# -gt 0 ]] || { echo "--out needs a path" >&2; exit 2; }
      OUT="$1"
      ;;
    --cluster-out)
      shift
      [[ $# -gt 0 ]] || { echo "--cluster-out needs a path" >&2; exit 2; }
      CLUSTER_OUT="$1"
      ;;
    --net-out)
      shift
      [[ $# -gt 0 ]] || { echo "--net-out needs a path" >&2; exit 2; }
      NET_OUT="$1"
      ;;
    --sched-out)
      shift
      [[ $# -gt 0 ]] || { echo "--sched-out needs a path" >&2; exit 2; }
      SCHED_OUT="$1"
      ;;
    --scenarios-out)
      shift
      [[ $# -gt 0 ]] || { echo "--scenarios-out needs a path" >&2; exit 2; }
      SCENARIOS_OUT="$1"
      ;;
    --storage-out)
      shift
      [[ $# -gt 0 ]] || { echo "--storage-out needs a path" >&2; exit 2; }
      STORAGE_OUT="$1"
      ;;
    *) echo "usage: scripts/bench.sh [--smoke] [--out FILE] [--cluster-out FILE] [--net-out FILE] [--sched-out FILE] [--scenarios-out FILE] [--storage-out FILE]" >&2; exit 2 ;;
  esac
  shift
done

QUICK=()
if [[ $SMOKE -eq 1 ]]; then
  QUICK=(--quick)
fi

echo "==> build (release)"
cargo build --offline --release -p ivdss-bench

echo "==> figure regeneration (fig4..fig9)"
for bin in fig4 fig5 fig6 fig7 fig8 fig9; do
  echo "--- $bin ---"
  cargo run --offline --release -p ivdss-bench --bin "$bin" -- ${QUICK[@]+"${QUICK[@]}"}
done

echo "==> ablations"
cargo run --offline --release -p ivdss-bench --bin ablations -- ${QUICK[@]+"${QUICK[@]}"}

echo "==> planner scaling (writes $OUT)"
cargo run --offline --release -p ivdss-bench --bin planner_scaling -- \
  ${QUICK[@]+"${QUICK[@]}"} --out "$OUT"

echo "==> cluster shard scaling (writes $CLUSTER_OUT)"
cargo run --offline --release -p ivdss-bench --bin cluster_scaling -- \
  ${QUICK[@]+"${QUICK[@]}"} --out "$CLUSTER_OUT"

echo "==> network serving: servebench over loopback TCP (writes $NET_OUT)"
NET_FLAGS=()
if [[ $SMOKE -eq 1 ]]; then
  NET_FLAGS=(--smoke)
fi
scripts/bench_net.sh ${NET_FLAGS[@]+"${NET_FLAGS[@]}"} --out "$NET_OUT"

echo "==> adaptive sync scheduling gain (writes $SCHED_OUT)"
cargo run --offline --release -p ivdss-bench --bin sched_gain -- \
  ${QUICK[@]+"${QUICK[@]}"} --out "$SCHED_OUT"

echo "==> scenario sweeps (writes $SCENARIOS_OUT)"
cargo run --offline --release -p ivdss-bench --bin scenarios -- \
  ${QUICK[@]+"${QUICK[@]}"} --out "$SCENARIOS_OUT"

echo "==> storage calibration (writes $STORAGE_OUT)"
cargo run --offline --release -p ivdss-bench --bin storage_calibration -- \
  ${QUICK[@]+"${QUICK[@]}"} --out "$STORAGE_OUT"

echo "Benchmark trajectory complete; scaling reports at $OUT, $CLUSTER_OUT, $NET_OUT, $SCHED_OUT, $SCENARIOS_OUT and $STORAGE_OUT."
