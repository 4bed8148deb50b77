#!/usr/bin/env bash
# Runs every servebench workload once and prints each one's metrics.
#
# Usage, from the repository root:
#   servebench/run_all.sh [SEED] [TRACE]
# SEED defaults to 1 (the development seed); TRACE is 0 for the
# end-to-end metrics (the default) or 1 for the traced per-layer run.
set -euo pipefail

cd "$(dirname "$0")/.."
seed="${1:-1}"
trace="${2:-0}"
for workload in tpch-paper dashboard-hot tenants-overload; do
  cargo run --quiet --release --offline --manifest-path servebench/Cargo.toml -- \
    --workload "$workload" --seed "$seed" --seconds 10 --trace "$trace"
done
