#!/usr/bin/env bash
# Full local gate: formatting, lints, and the test suite.
# CI runs exactly this script; run it before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (deny rustdoc warnings, as CI's docs job does)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> cluster differential + property + golden suites (release)"
cargo test --offline --release -p ivdss-cluster

echo "==> network loopback e2e + protocol fuzz (release)"
cargo test --offline --release -p ivdss-net

echo "==> adaptive-scheduling differential + property + golden suites (release)"
cargo test --offline --release -p ivdss-sched

echo "==> scenario engine property + golden + catalog-pin suites (release)"
cargo test --offline --release -p ivdss-scenarios
cargo test --offline --release -p ivdss-dsim --test golden_scenario --test scenario_catalog_pins

echo "==> storage differential + property + calibration + golden suites (release)"
cargo test --offline --release -p ivdss-storage
cargo test --offline --release -p ivdss-dsim --test calibration_regression
cargo test --offline --release -p ivdss-serve --test golden_storage_trace

echo "==> serving benchmark correctness check (release)"
# servebench is its own cargo workspace, so the steps above never build
# it. Each workload's last line is its JSON report; a run is correct
# when every socket pass matched the in-process run.
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml
for workload in tpch-paper dashboard-hot tenants-overload; do
  report=$(cargo run --quiet --release --offline --manifest-path servebench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  case "$report" in
    *'"correct": true'*) echo "    $workload: correct" ;;
    *)
      echo "servebench $workload failed its correctness check: $report" >&2
      exit 1
      ;;
  esac
done
# The traced replay (--trace 1) is the only servebench path that calls
# the plain search directly and reads the cluster's `shared_memo()` and
# the engine's `replan_cache()` (hidden seams that report zero
# counters), so one short run keeps it exercised (~1 s).
report=$(cargo run --quiet --release --offline --manifest-path servebench/Cargo.toml -- \
  --workload tenants-overload --seed 1 --seconds 1 --trace 1 | tail -n 1)
case "$report" in
  *'"correct": true'*) echo "    tenants-overload (traced): correct" ;;
  *)
    echo "servebench tenants-overload --trace 1 failed its correctness check: $report" >&2
    exit 1
    ;;
esac

echo "==> markdown link check"
scripts/linkcheck.sh

echo "All checks passed."
