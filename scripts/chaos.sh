#!/usr/bin/env bash
# Chaos gate: the deterministic fault-injection suites, in release mode.
#
# Every suite runs a fixed seed band (no time- or entropy-derived
# seeds), so a failure here names a seed that fails on every machine,
# every time. CI runs this as a separate job from the main check gate.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> serving-engine chaos invariants (120-seed band, clean shadow, trace reconciliation)"
cargo test --offline --release -p ivdss-serve --test chaos

echo "==> scatter-gather vs oracle differential, nominal + slipped (80-seed band)"
cargo test --offline --release -p ivdss-core --test differential

echo "==> cluster shard-outage chaos (20-seed band, trace reconciliation)"
cargo test --offline --release -p ivdss-cluster --test cluster_chaos

echo "==> adaptive-schedule chaos composition (24-seed band)"
cargo test --offline --release -p ivdss-sched --test adaptive_chaos

echo "==> scripted outage-and-recovery end to end"
cargo test --offline --release --test chaos_recovery

echo "==> chaos demo"
cargo run --offline --release --example chaos_demo >/dev/null

echo "All chaos checks passed."
