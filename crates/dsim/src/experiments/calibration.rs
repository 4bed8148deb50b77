//! Measured-vs-modeled calibration — the storage feedback loop.
//!
//! Not a figure from the paper: the paper's §3 cost model is analytic
//! (bytes ÷ scan rate), and this experiment measures how far that
//! estimate sits from *executed* scans. A TPC-H replica set is
//! materialized as record pages ([`StorageEngine`]), the
//! **even-indexed** tables are scanned directly and regressed into a
//! [`LocalFit`] (`seconds = overhead + secs_per_byte × bytes`), and a
//! [`ServeEngine`] then serves a seeded query stream. Every local table
//! of every dispatched plan, in completion order, is scanned and becomes
//! a **held-out** sample: the workload, not the fit, picks these scans.
//! The odd-indexed tables among them never appeared in the fit; an
//! even-indexed one can repeat a training scan. The
//! point reports the mean relative per-scan error of the uncalibrated
//! analytic prediction versus the fitted prediction on those held-out
//! scans; the calibrated error must be strictly lower, and the
//! regression suite pins both numbers bit-for-bit.

use ivdss_catalog::tpch::{tpch_catalog, TpchConfig};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::calibrate::{fit_local, CalibrationSample, LocalFit};
use ivdss_costmodel::model::AnalyticCostModel;
use ivdss_obs::{EventKind, Tracer};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{ServeConfig, ServeEngine};
use ivdss_simkernel::rng::SeedFactory;
use ivdss_storage::{StorageConfig, StorageEngine};
use ivdss_workloads::stream::ArrivalStream;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

/// Configuration of one calibration point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// TPC-H scale factor. The default keeps every table under the
    /// storage row cap so the run asserts full fidelity.
    pub scale_factor: f64,
    /// Remote sites the TPC-H tables are spread over.
    pub sites: usize,
    /// Tables with local replicas (local replicas are what the serving
    /// path actually scans).
    pub replicated_tables: usize,
    /// Mean synchronization period of each replica.
    pub mean_sync_period: f64,
    /// Queries served to pick the held-out scans.
    pub queries: usize,
    /// Maximum tables per generated query.
    pub max_tables_per_query: usize,
    /// Mean interarrival time of the query stream.
    pub mean_interarrival: f64,
    /// Storage build parameters (page size, row cap, payload seed).
    pub storage: StorageConfig,
    /// Root seed for catalog, workload and arrivals.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            scale_factor: 0.0005,
            sites: 3,
            replicated_tables: 8,
            mean_sync_period: 10.0,
            queries: 24,
            max_tables_per_query: 3,
            mean_interarrival: 2.0,
            storage: StorageConfig::default(),
            seed: 0xCA_1B,
        }
    }
}

/// What one calibration point measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationResults {
    /// Coefficients fitted from the direct scans of even-indexed tables.
    pub fit: LocalFit,
    /// Direct (training) scans the fit consumed.
    pub fit_scans: usize,
    /// Held-out scans (the dispatched plans' local tables) the errors
    /// are computed over.
    pub holdout_scans: usize,
    /// Queries completed by the serving engine.
    pub completed: usize,
    /// Mean relative per-scan error of the uncalibrated analytic
    /// prediction (`bytes ÷ local_scan_rate`) on the held-out scans.
    pub analytic_err: f64,
    /// Mean relative per-scan error of the fitted prediction on the same
    /// held-out scans.
    pub calibrated_err: f64,
    /// `analytic_err / calibrated_err` — how many times closer the
    /// calibrated model sits to the measurement.
    pub improvement: f64,
}

impl CalibrationResults {
    /// Renders the point as an aligned table.
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== Storage calibration — measured vs modeled ==");
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>14} {:>14} {:>14} {:>12}",
            "fit scans", "holdout", "completed", "overhead", "s/byte", "analytic err", "calib err"
        );
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>14.6e} {:>14.6e} {:>14.6} {:>12.6}",
            self.fit_scans,
            self.holdout_scans,
            self.completed,
            self.fit.overhead,
            self.fit.secs_per_byte,
            self.analytic_err,
            self.calibrated_err,
        );
        let _ = writeln!(out, "improvement: {:.1}x", self.improvement);
        out
    }
}

/// Runs one calibration point without tracing.
///
/// # Panics
///
/// Panics if the catalog configuration is invalid, a table hits the
/// storage row cap, the fit degenerates, or the serving engine rejects a
/// generated query — all configuration failures, not measurement
/// outcomes.
#[must_use]
pub fn run_calibration(config: &CalibrationConfig) -> CalibrationResults {
    run_calibration_traced(config, Tracer::disabled())
}

/// Runs one calibration point with `tracer` attached: one
/// `coefficients_fit` when the regression lands, then the serving
/// engine's pipeline trace.
///
/// # Panics
///
/// See [`run_calibration`].
#[must_use]
pub fn run_calibration_traced(config: &CalibrationConfig, tracer: Tracer) -> CalibrationResults {
    let seeds = SeedFactory::new(config.seed);
    let catalog = tpch_catalog(&TpchConfig {
        scale_factor: config.scale_factor,
        sites: config.sites,
        replicated_tables: config.replicated_tables,
        mean_sync_period: config.mean_sync_period,
        seed: seeds.seed_for("catalog"),
        ..TpchConfig::default()
    })
    .expect("calibration catalog configuration is valid");
    let storage = StorageEngine::build(&catalog, &config.storage);
    assert!(
        storage.is_full_fidelity(),
        "calibration requires full-fidelity storage — raise row_cap or lower scale_factor"
    );

    let scan = |table| {
        let m = storage.execute_table_scan(table);
        CalibrationSample {
            bytes: m.bytes as f64,
            seconds: m.seconds,
        }
    };

    // Phase 1 — training: direct scans of the even-indexed tables only.
    // The odd-indexed tables never enter the fit, so phase 2's scans of
    // them are genuinely held out.
    let training: Vec<CalibrationSample> = catalog
        .table_ids()
        .into_iter()
        .filter(|t| t.index() % 2 == 0)
        .map(scan)
        .collect();
    let fit = fit_local(&training).expect("even-indexed TPC-H tables span distinct byte counts");
    tracer.emit_with(ivdss_simkernel::time::SimTime::ZERO, || {
        EventKind::CoefficientsFit {
            samples: fit.samples,
            overhead: fit.overhead,
            secs_per_byte: fit.secs_per_byte,
        }
    });

    // Phase 2 — holdout: a serving run. Every local table of every
    // dispatched plan is scanned, in completion order.
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let model = AnalyticCostModel::paper_scale();
    let mut engine = ServeEngine::new(
        &catalog,
        &timelines,
        &model,
        ServeConfig::new(DiscountRates::new(0.01, 0.05)),
        DesClock::new(),
    )
    .with_tracer(tracer);
    let templates = random_queries(&RandomQueryConfig {
        queries: config.queries,
        tables: catalog.table_count(),
        max_tables_per_query: config.max_tables_per_query,
        weight_range: (0.8, 2.0),
        seed: seeds.seed_for("queries"),
    });
    let mut stream = ArrivalStream::new(
        templates,
        config.mean_interarrival,
        seeds.seed_for("arrivals"),
    );
    let mut completions = Vec::new();
    for _ in 0..config.queries {
        let report = engine
            .submit(stream.next_request())
            .expect("calibration submission plans");
        completions.extend(report.completed);
    }
    completions.extend(engine.drain().expect("calibration drain plans"));

    let holdout: Vec<CalibrationSample> = completions
        .iter()
        .flat_map(|c| c.evaluation.local_tables.iter().copied())
        .map(scan)
        .collect();
    assert!(
        !holdout.is_empty(),
        "no dispatched plan read a local replica, so nothing was scanned"
    );
    let mut analytic_sum = 0.0;
    let mut calibrated_sum = 0.0;
    for s in &holdout {
        let analytic_pred = s.bytes / model.local_scan_rate;
        let calibrated_pred = fit.predict(s.bytes);
        analytic_sum += (analytic_pred - s.seconds).abs() / s.seconds;
        calibrated_sum += (calibrated_pred - s.seconds).abs() / s.seconds;
    }
    let analytic_err = analytic_sum / holdout.len() as f64;
    let calibrated_err = calibrated_sum / holdout.len() as f64;

    CalibrationResults {
        fit,
        fit_scans: training.len(),
        holdout_scans: holdout.len(),
        completed: completions.len(),
        analytic_err,
        calibrated_err,
        improvement: analytic_err / calibrated_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use ivdss_obs::Trace;

    #[test]
    fn calibration_improves_on_analytic_model() {
        let results = run_calibration(&CalibrationConfig::default());
        assert!(results.fit_scans >= 2);
        assert!(results.holdout_scans > 0);
        assert!(results.completed > 0);
        assert!(
            results.calibrated_err < results.analytic_err,
            "calibrated {} must beat analytic {}",
            results.calibrated_err,
            results.analytic_err
        );
        assert!(results.improvement > 1.0);
    }

    #[test]
    fn calibration_is_deterministic() {
        let config = CalibrationConfig::default();
        let a = run_calibration(&config);
        let b = run_calibration(&config);
        assert_eq!(a, b);
        assert_eq!(a.fit.overhead.to_bits(), b.fit.overhead.to_bits());
        assert_eq!(a.analytic_err.to_bits(), b.analytic_err.to_bits());
    }

    #[test]
    fn traced_run_emits_storage_events() {
        let trace = Arc::new(Trace::new());
        let results = run_calibration_traced(
            &CalibrationConfig::default(),
            Tracer::recording(Arc::clone(&trace)),
        );
        assert!(results.holdout_scans > 0);
        let rendered = trace.render();
        assert!(
            rendered.contains("coefficients_fit"),
            "trace missing coefficients_fit"
        );
    }

    #[test]
    fn table_renders() {
        let table = run_calibration(&CalibrationConfig::default()).to_table();
        assert!(table.contains("Storage calibration"));
        assert!(table.contains("improvement"));
    }
}
