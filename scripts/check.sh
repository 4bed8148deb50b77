#!/usr/bin/env bash
# Full local gate: formatting, lints, and the test suite.
# CI runs exactly this script; run it before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> dead-code scan (pub items nothing references)"
scripts/deadcode.sh

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (deny rustdoc warnings)"
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

echo "==> storage differential + property + calibration suites (release)"
cargo test --offline --release -p ivdss-storage
cargo test --offline --release -p ivdss-dsim --test calibration_regression

echo "==> examples (release)"
# Each example asserts its own acceptance criteria and panics when one
# fails, so a clean exit is a real check.
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  echo "    $name"
  cargo run --quiet --release --offline --example "$name" > /dev/null
done

echo "==> serving benchmark correctness and digest check (release)"
# servebench is its own cargo workspace, so the steps above never build
# it. Each workload's last line is its JSON report; a run is correct
# when every socket pass matched the in-process run. The in-process
# run's per-query IV digest is also pinned per workload: a change that
# moves plans or delivered values on the benchmark's worlds fails here
# even when its socket passes agree with it.
# A path dependency dropped from a crate's manifest still passes
# `--locked`, but the benchmark's own `cargo run --offline` rewrites
# servebench/Cargo.lock to drop it, so the lock's checksum is compared
# after the last run.
lock_before=$(cksum servebench/Cargo.lock)
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml
for pin in tpch-paper:6977be4fd6fd3144 dashboard-hot:1335430ddba4e3dd tenants-overload:a99e10cca82aeb63; do
  workload=${pin%%:*}
  pinned=${pin#*:}
  output=$(cargo run --quiet --release --offline --manifest-path servebench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0)
  report=$(printf '%s\n' "$output" | tail -n 1)
  case "$report" in
    *'"correct": true'*) ;;
    *)
      echo "servebench $workload failed its correctness check: $report" >&2
      exit 1
      ;;
  esac
  digest=$(printf '%s\n' "$output" | sed -n 's/^digest in-process \([0-9a-f]*\),.*/\1/p')
  if [ "$digest" != "$pinned" ]; then
    echo "servebench $workload --seed 1 --seconds 1: in-process digest '$digest', pinned $pinned." >&2
    echo "Plans or delivered values moved on the benchmark's world. A change meant to move them" >&2
    echo "updates the pin in scripts/check.sh and argues the new values in CHANGES.md." >&2
    exit 1
  fi
  echo "    $workload: correct, digest $digest"
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
if [ "$(cksum servebench/Cargo.lock)" != "$lock_before" ]; then
  echo "building servebench rewrote servebench/Cargo.lock; restore it and keep every dependency edge it lists" >&2
  exit 1
fi

echo "==> markdown link check"
scripts/linkcheck.sh

echo "All checks passed."
