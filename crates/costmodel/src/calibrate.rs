//! Measured-scan calibration of the analytic cost model.
//!
//! `ivdss-storage` executes real scans and reports one
//! [`CalibrationSample`] per scan — the bytes the table spans in the
//! catalog and the deterministic measured latency the device profile
//! charged for it. [`fit_local`] regresses those samples with closed-form
//! ordinary least squares into a [`LocalFit`]
//! (`seconds ≈ overhead + secs_per_byte × bytes`), and
//! [`CalibratedCostModel`] substitutes the fitted coefficients into the
//! local side of [`AnalyticCostModel`], leaving the remote and
//! transmission sides on the base coefficients. Summation order in the
//! fit is fixed (sample order), so identical samples produce bit-identical
//! coefficients — the regression suite pins them.

use std::collections::BTreeSet;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_simkernel::time::SimDuration;

use crate::model::{AnalyticCostModel, CostModel, PlanCost};
use crate::query::QuerySpec;

/// One measured scan: catalog bytes spanned vs measured latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// Bytes the scanned table spans (`rows × row_bytes`).
    pub bytes: f64,
    /// Measured scan latency in model time units.
    pub seconds: f64,
}

/// Fitted local-scan coefficients: `seconds = overhead + secs_per_byte × bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalFit {
    /// Fixed per-scan overhead (intercept), time units.
    pub overhead: f64,
    /// Marginal scan cost per byte (slope), time units per byte.
    pub secs_per_byte: f64,
    /// Number of samples the fit consumed.
    pub samples: usize,
}

impl LocalFit {
    /// Predicted latency of one scan over `bytes` bytes.
    #[must_use]
    pub fn predict(&self, bytes: f64) -> f64 {
        self.overhead + self.secs_per_byte * bytes
    }
}

/// Closed-form OLS fit of `seconds` against `bytes`.
///
/// Returns `None` with fewer than two samples or when all samples span
/// the same byte count (the slope would be undefined). Sums are
/// accumulated in sample order, so the result is a pure function of the
/// sample sequence — bit-reproducible across fits.
#[must_use]
pub fn fit_local(samples: &[CalibrationSample]) -> Option<LocalFit> {
    if samples.len() < 2 {
        return None;
    }
    let n = samples.len() as f64;
    let mut sum_x = 0.0;
    let mut sum_y = 0.0;
    let mut sum_xx = 0.0;
    let mut sum_xy = 0.0;
    for s in samples {
        sum_x += s.bytes;
        sum_y += s.seconds;
        sum_xx += s.bytes * s.bytes;
        sum_xy += s.bytes * s.seconds;
    }
    let denom = n * sum_xx - sum_x * sum_x;
    if denom == 0.0 {
        return None;
    }
    let secs_per_byte = (n * sum_xy - sum_x * sum_y) / denom;
    let overhead = (sum_y - secs_per_byte * sum_x) / n;
    Some(LocalFit {
        overhead,
        secs_per_byte,
        samples: samples.len(),
    })
}

/// [`AnalyticCostModel`] with its local side replaced by measured-scan
/// coefficients.
///
/// Local processing becomes
/// `overhead × |local tables| + secs_per_byte × weight·join_scale × bytes`
/// (the fitted per-scan intercept is charged once per locally scanned
/// table); shipped-result assembly uses the fitted slope too. Remote
/// processing and transmission keep the base model's estimates — the
/// storage engine only measures local replica scans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedCostModel {
    base: AnalyticCostModel,
    fit: LocalFit,
}

impl CalibratedCostModel {
    /// Wraps `base` with fitted local coefficients.
    #[must_use]
    pub fn new(base: AnalyticCostModel, fit: LocalFit) -> Self {
        CalibratedCostModel { base, fit }
    }

    /// The fitted coefficients.
    #[must_use]
    pub fn fit(&self) -> LocalFit {
        self.fit
    }
}

impl CostModel for CalibratedCostModel {
    fn plan_cost(
        &self,
        catalog: &Catalog,
        query: &QuerySpec,
        remote: &BTreeSet<TableId>,
    ) -> PlanCost {
        let base_cost = self.base.plan_cost(catalog, query, remote);
        let join_scale =
            1.0 + self.base.join_factor * (query.table_count().saturating_sub(1)) as f64;
        let weight = query.weight() * join_scale;

        let local_tables: Vec<TableId> = query
            .tables()
            .iter()
            .copied()
            .filter(|t| !remote.contains(t))
            .collect();
        let local_bytes: f64 = local_tables
            .iter()
            .map(|&t| catalog.table(t).size_bytes() as f64)
            .sum();
        let mut local = self.fit.overhead * local_tables.len() as f64
            + self.fit.secs_per_byte * weight * local_bytes;

        if !remote.is_empty() {
            let remote_bytes: f64 = remote
                .iter()
                .map(|&t| catalog.table(t).size_bytes() as f64)
                .sum();
            let shipped_bytes = query.selectivity() * remote_bytes;
            local += self.fit.secs_per_byte * weight * shipped_bytes;
        }

        PlanCost {
            local_processing: SimDuration::new(local),
            remote_processing: base_cost.remote_processing,
            transmission: base_cost.transmission,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryId;
    use ivdss_catalog::placement::PlacementStrategy;
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};

    fn samples() -> Vec<CalibrationSample> {
        // Exactly linear: seconds = 0.5 + 2e-6 * bytes.
        [1_000.0, 5_000.0, 20_000.0, 80_000.0]
            .iter()
            .map(|&bytes| CalibrationSample {
                bytes,
                seconds: 0.5 + 2.0e-6 * bytes,
            })
            .collect()
    }

    #[test]
    fn fit_recovers_exact_line() {
        let fit = fit_local(&samples()).unwrap();
        assert!(
            (fit.overhead - 0.5).abs() < 1e-9,
            "overhead {}",
            fit.overhead
        );
        assert!(
            (fit.secs_per_byte - 2.0e-6).abs() < 1e-12,
            "slope {}",
            fit.secs_per_byte
        );
        assert_eq!(fit.samples, 4);
    }

    #[test]
    fn fit_is_bit_reproducible() {
        let s = samples();
        let a = fit_local(&s).unwrap();
        let b = fit_local(&s).unwrap();
        assert_eq!(a.overhead.to_bits(), b.overhead.to_bits());
        assert_eq!(a.secs_per_byte.to_bits(), b.secs_per_byte.to_bits());
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(fit_local(&[]).is_none());
        assert!(fit_local(&samples()[..1]).is_none());
        let flat = vec![
            CalibrationSample {
                bytes: 10.0,
                seconds: 1.0
            };
            3
        ];
        assert!(fit_local(&flat).is_none());
    }

    #[test]
    fn calibrated_model_uses_fitted_local_side() {
        let cat = synthetic_catalog(&SyntheticConfig {
            tables: 4,
            sites: 2,
            replicated_tables: 4,
            placement: PlacementStrategy::Uniform,
            seed: 2,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let fit = fit_local(&samples()).unwrap();
        let base = AnalyticCostModel::paper_scale();
        let model = CalibratedCostModel::new(base, fit);
        let q = QuerySpec::new(QueryId::new(0), vec![TableId::new(0), TableId::new(1)]);

        let all_local = model.plan_cost(&cat, &q, &BTreeSet::new());
        let bytes: f64 = (cat.table(TableId::new(0)).size_bytes()
            + cat.table(TableId::new(1)).size_bytes()) as f64;
        let join_scale = 1.0 + base.join_factor;
        let expect = fit.overhead * 2.0 + fit.secs_per_byte * join_scale * bytes;
        assert!((all_local.local_processing.value() - expect).abs() < 1e-9);
        assert_eq!(all_local.remote_processing, SimDuration::ZERO);

        // Remote/transmission sides are inherited from the base model.
        let remote: BTreeSet<TableId> = [TableId::new(1)].into_iter().collect();
        let calibrated = model.plan_cost(&cat, &q, &remote);
        let analytic = base.plan_cost(&cat, &q, &remote);
        assert_eq!(calibrated.remote_processing, analytic.remote_processing);
        assert_eq!(calibrated.transmission, analytic.transmission);
    }
}
