//! # ivdss-bench — figure regeneration and experiment reports
//!
//! Binaries (run with `cargo run -p ivdss-bench --release --bin <name>`,
//! add `--quick` for a scaled-down run; `scripts/bench.sh` runs them
//! all in order):
//!
//! * `fig4` — the §3.1 scatter-and-gather worked example;
//! * `fig5` — information value vs synchronization frequency (Fig. 5a–d);
//! * `fig6` — per-query computational latency (Fig. 6);
//! * `fig7` — per-query synchronization latency (Fig. 7a–c);
//! * `fig8` — information value vs number of sites (Fig. 8a–b);
//! * `fig9` — the effect of multi-query optimization (Fig. 9a–b);
//! * `ablations` — the pruning bound, the GA scheduler, the cost model
//!   and the aging policy (the design choices DESIGN.md calls out);
//! * `planner_scaling`, `cluster_scaling`, `sched_gain`, `scenarios`,
//!   `storage_calibration` — the machine-readable `BENCH_*.json`
//!   reports.
//!
//! Serving throughput is measured by `servebench/` alone.

/// Returns `true` if the process arguments request a scaled-down run.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The median of `samples` (the upper one of an even count), sorting
/// them in place.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
#[must_use]
pub fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}
