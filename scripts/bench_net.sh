#!/usr/bin/env bash
# Network-serving benchmark cell: runs the serving benchmark
# (servebench/, its own cargo workspace) on its three workloads over
# loopback TCP and writes BENCH_serve_net.json at the repo root.
# scripts/bench.sh calls this as its network-serving step; run it alone
# to regenerate the cell without the rest of the trajectory.
#
# Usage:
#   scripts/bench_net.sh            # full run: --seconds 10 per workload
#   scripts/bench_net.sh --smoke    # --seconds 1 per workload
#   scripts/bench_net.sh --out F    # write the JSON to F instead
#
# Each servebench run serves its workload's seeded stream over loopback
# TCP and checks every answer against an in-process run. Its last line
# is the JSON report; the "digest in-process" line carries the per-query
# IV digest of that in-process run. The script fails unless every run is
# correct. The report records the host's hardware parallelism.
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
NET_OUT="BENCH_serve_net.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --out)
      shift
      [[ $# -gt 0 ]] || { echo "--out needs a path" >&2; exit 2; }
      NET_OUT="$1"
      ;;
    *) echo "usage: scripts/bench_net.sh [--smoke] [--out FILE]" >&2; exit 2 ;;
  esac
  shift
done

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
