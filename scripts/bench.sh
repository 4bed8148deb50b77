#!/usr/bin/env bash
# Reproducible benchmark trajectory: regenerates every paper figure,
# runs the ablations, and produces the machine-readable planner-scaling,
# cluster shard-scaling, network-serving, adaptive-scheduling,
# scenario-sweep and storage-calibration reports (BENCH_planner.json,
# BENCH_cluster.json, BENCH_serve_net.json, BENCH_sched.json,
# BENCH_scenarios.json and BENCH_storage.json at the repo root).
# The network-serving report comes from the serving benchmark
# (servebench/, its own cargo workspace), run on its three workloads.
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
# Each servebench run serves its workload's seeded stream over loopback
# TCP and checks every answer against an in-process run. Its last line
# is the JSON report; the "digest in-process" line carries the per-query
# IV digest of that in-process run. The step fails unless every run is
# correct.
NET_MODE=full
NET_SECONDS=10
if [[ $SMOKE -eq 1 ]]; then
  NET_MODE=smoke
  NET_SECONDS=1
fi
cargo build --offline --release --quiet --manifest-path servebench/Cargo.toml
NET_WORKLOADS=""
separator=""
for workload in tpch-paper dashboard-hot tenants-overload; do
  output=$(cargo run --offline --release --quiet --manifest-path servebench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds "$NET_SECONDS" --trace 0)
  printf '%s\n' "$output"
  report=$(tail -n 1 <<<"$output")
  digest=$(sed -n 's/^digest in-process \([0-9a-f]\{16\}\),.*/\1/p' <<<"$output")
  case "$report" in
    *'"correct": true'*) ;;
    *)
      echo "servebench $workload failed its correctness check: $report" >&2
      exit 1
      ;;
  esac
  [[ -n $digest ]] || { echo "servebench $workload printed no IV digest" >&2; exit 1; }
  NET_WORKLOADS+="$separator    {\"workload\": \"$workload\", \"digest\": \"$digest\", \"report\": $report}"
  separator=$',\n'
done
cat >"$NET_OUT" <<EOF
{
  "bench": "servebench",
  "mode": "$NET_MODE",
  "seed": 1,
  "seconds": $NET_SECONDS,
  "host_parallelism": $(nproc),
  "workloads": [
$NET_WORKLOADS
  ]
}
EOF

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
