//! Multi-tenant traffic mixes.
//!
//! A tenant is a traffic class with a share of the arrival stream, a
//! business-value range (the `V` in the paper's `IV = V·(1−λ_CL)^CL·
//! (1−λ_SL)^SL`), and an optional SLA deadline. Scenario drivers use
//! the deadline to score each completion against `submitted + SLA` —
//! the IV-aware admission path then shows up as gold tenants keeping
//! their deadlines while bronze traffic is shed first.

use ivdss_core::value::BusinessValue;
use ivdss_simkernel::rng::{Stream, UniformStream};
use ivdss_simkernel::time::SimDuration;

/// One traffic class in a [`TenantMix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Display name (static: tenants form a fixed catalog per
    /// scenario, so labels never allocate).
    pub name: &'static str,
    /// Relative share of the arrival stream (normalized across the
    /// mix; shares need not sum to 1).
    pub share: f64,
    /// Business value drawn uniformly from `[low, high)` per request.
    pub business_value: (f64, f64),
    /// Response-time SLA: the deadline is `submitted + sla_deadline`.
    /// `None` = best-effort traffic with no deadline.
    pub sla_deadline: Option<f64>,
}

impl TenantSpec {
    /// A tenant with uniform business value in `[low, high)` and no
    /// SLA.
    ///
    /// # Panics
    ///
    /// Panics if `share` is not strictly positive or the value range is
    /// inverted or non-positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_scenarios::tenant::TenantSpec;
    ///
    /// let gold = TenantSpec::new("gold", 0.2, (5.0, 10.0)).with_sla(10.0);
    /// assert_eq!(gold.sla_deadline, Some(10.0));
    /// ```
    #[must_use]
    pub fn new(name: &'static str, share: f64, business_value: (f64, f64)) -> Self {
        assert!(
            share.is_finite() && share > 0.0,
            "tenant share must be positive"
        );
        assert!(
            business_value.0 > 0.0 && business_value.0 < business_value.1,
            "business-value range must satisfy 0 < low < high"
        );
        TenantSpec {
            name,
            share,
            business_value,
            sla_deadline: None,
        }
    }

    /// Attaches a response-time SLA.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not strictly positive and finite.
    #[must_use]
    pub fn with_sla(mut self, deadline: f64) -> Self {
        assert!(
            deadline.is_finite() && deadline > 0.0,
            "SLA deadline must be positive"
        );
        self.sla_deadline = Some(deadline);
        self
    }
}

/// One per-request draw from a [`TenantMix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantDraw {
    /// Index of the drawn tenant in the mix.
    pub tenant: usize,
    /// The request's business value.
    pub business_value: BusinessValue,
    /// The request's SLA budget, if its tenant has one.
    pub deadline: Option<SimDuration>,
}

/// A seeded sampler assigning each arrival to a tenant and drawing its
/// business value.
///
/// # Examples
///
/// ```
/// use ivdss_scenarios::tenant::{TenantMix, TenantSpec};
///
/// let mut mix = TenantMix::new(
///     vec![
///         TenantSpec::new("gold", 0.25, (5.0, 10.0)).with_sla(10.0),
///         TenantSpec::new("bronze", 0.75, (0.5, 1.5)),
///     ],
///     7,
/// );
/// let draw = mix.draw();
/// assert!(draw.tenant < 2);
/// assert!(draw.business_value.value() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TenantMix {
    tenants: Vec<TenantSpec>,
    /// Normalized cumulative shares.
    share_cdf: Vec<f64>,
    draws: UniformStream,
}

impl TenantMix {
    /// Creates a mix over `tenants` (shares are normalized).
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty.
    #[must_use]
    pub fn new(tenants: Vec<TenantSpec>, seed: u64) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        let total: f64 = tenants.iter().map(|t| t.share).sum();
        let mut cum = 0.0;
        let share_cdf = tenants
            .iter()
            .map(|t| {
                cum += t.share / total;
                cum
            })
            .collect();
        TenantMix {
            tenants,
            share_cdf,
            draws: UniformStream::new(0.0, 1.0, seed),
        }
    }

    /// Number of tenants in the mix.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` iff the mix has no tenants (never: `new` rejects empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The tenant at `index`.
    #[must_use]
    pub fn spec(&self, index: usize) -> &TenantSpec {
        &self.tenants[index]
    }

    /// A tenant's normalized share of the stream (a read-back for
    /// tests).
    #[cfg(test)]
    fn normalized_share(&self, index: usize) -> f64 {
        let below = if index == 0 {
            0.0
        } else {
            self.share_cdf[index - 1]
        };
        self.share_cdf[index] - below
    }

    /// Draws the next request's tenant, business value and SLA budget.
    pub fn draw(&mut self) -> TenantDraw {
        let u = self.draws.next_sample();
        let tenant = self.share_cdf.partition_point(|&cum| cum <= u);
        let tenant = tenant.min(self.tenants.len() - 1);
        let spec = &self.tenants[tenant];
        let (lo, hi) = spec.business_value;
        let bv = lo + (hi - lo) * self.draws.next_sample();
        TenantDraw {
            tenant,
            business_value: BusinessValue::new(bv),
            deadline: spec.sla_deadline.map(SimDuration::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(seed: u64) -> TenantMix {
        TenantMix::new(
            vec![
                TenantSpec::new("gold", 1.0, (5.0, 10.0)).with_sla(10.0),
                TenantSpec::new("silver", 2.0, (2.0, 4.0)).with_sla(25.0),
                TenantSpec::new("bronze", 5.0, (0.5, 1.5)),
            ],
            seed,
        )
    }

    #[test]
    fn shares_normalize() {
        let m = mix(0);
        assert!((m.normalized_share(0) - 0.125).abs() < 1e-12);
        assert!((m.normalized_share(1) - 0.25).abs() < 1e-12);
        assert!((m.normalized_share(2) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn draws_match_shares_and_ranges() {
        let mut m = mix(3);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            let d = m.draw();
            counts[d.tenant] += 1;
            let (lo, hi) = m.spec(d.tenant).business_value;
            let bv = d.business_value.value();
            assert!(bv >= lo && bv < hi, "bv {bv} outside [{lo}, {hi})");
            assert_eq!(
                d.deadline.map(|dl| dl.value()),
                m.spec(d.tenant).sla_deadline
            );
        }
        for (i, &n) in counts.iter().enumerate() {
            let observed = n as f64 / 20_000.0;
            let expected = m.normalized_share(i);
            assert!(
                (observed - expected).abs() < 0.02,
                "tenant {i}: share {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        let mut a = mix(9);
        let mut b = mix(9);
        for _ in 0..500 {
            assert_eq!(a.draw(), b.draw());
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_mix_rejected() {
        let _ = TenantMix::new(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "0 < low < high")]
    fn inverted_value_range_rejected() {
        let _ = TenantSpec::new("broken", 1.0, (2.0, 1.0));
    }
}
