//! Regression pins for the storage calibration experiment.
//!
//! The calibration point is deterministic end to end: seeded catalog,
//! seeded record payloads, device-profile latencies that are pure
//! functions of access counts, and a fixed-summation-order OLS fit. So
//! the suite pins the headline numbers exactly as they appear in
//! `EXPERIMENTS.md` and `BENCH_storage.json` — if any of them moves, the
//! docs and the committed bench report must be regenerated in the same
//! change.

use ivdss_dsim::experiments::calibration::{run_calibration, CalibrationConfig};

#[test]
fn coefficients_are_bit_reproducible_across_fits() {
    let config = CalibrationConfig::default();
    let a = run_calibration(&config);
    let b = run_calibration(&config);
    assert_eq!(a.fit.overhead.to_bits(), b.fit.overhead.to_bits());
    assert_eq!(a.fit.secs_per_byte.to_bits(), b.fit.secs_per_byte.to_bits());
    assert_eq!(a.analytic_err.to_bits(), b.analytic_err.to_bits());
    assert_eq!(a.calibrated_err.to_bits(), b.calibrated_err.to_bits());
    assert_eq!(a, b);
}

#[test]
fn calibrated_error_strictly_beats_analytic_on_holdout() {
    let results = run_calibration(&CalibrationConfig::default());
    assert!(
        results.calibrated_err < results.analytic_err,
        "calibrated {} must be strictly below analytic {}",
        results.calibrated_err,
        results.analytic_err
    );
    // The held-out scans come from the serve path over tables the fit
    // never saw; a large margin is the point of calibrating at all.
    assert!(results.improvement > 10.0);
}

/// Headline numbers, pinned to the exact renderings committed in
/// EXPERIMENTS.md and BENCH_storage.json.
#[test]
fn headline_numbers_are_pinned() {
    let r = run_calibration(&CalibrationConfig::default());
    assert_eq!(r.fit_scans, 6);
    assert_eq!(r.holdout_scans, 13);
    assert_eq!(r.completed, 24);
    assert_eq!(format!("{:.6}", r.analytic_err), "0.994439");
    assert_eq!(format!("{:.6}", r.calibrated_err), "0.035925");
    assert_eq!(format!("{:.1}", r.improvement), "27.7");
    assert_eq!(format!("{:.6e}", r.fit.overhead), "6.115436e-4");
    assert_eq!(format!("{:.6e}", r.fit.secs_per_byte), "5.839452e-8");
    // Each error is an in-order sum over the held-out scans, so scanning
    // another table, or the same tables in another order, moves its bits
    // even where six printed digits do not.
    assert_eq!(r.analytic_err.to_bits(), 0x3fef_d272_5c83_2f3e);
    assert_eq!(r.calibrated_err.to_bits(), 0x3fa2_64d0_2555_42c2);
    assert_eq!(r.fit.overhead.to_bits(), 0x3f44_09ff_d7b4_f638);
    assert_eq!(r.fit.secs_per_byte.to_bits(), 0x3e6f_59ae_63c7_5f94);
}
