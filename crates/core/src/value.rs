//! Business values, discount rates and the information-value formula.
//!
//! The heart of the paper (§2): each report carries a user-assigned
//! **business value**; its delivered **information value** is
//!
//! ```text
//! IV = BusinessValue × (1 − λ_CL)^CL × (1 − λ_SL)^SL
//! ```
//!
//! where `CL` is the computational latency, `SL` the synchronization
//! latency and `λ_CL`, `λ_SL` the per-time-unit discount rates expressing
//! the user's sensitivity to late vs. stale reports (the present-value
//! analogy of §1).

use std::fmt;

use ivdss_simkernel::time::SimDuration;

use crate::latency::Latencies;

/// A strictly positive business value assigned to a report.
///
/// # Examples
///
/// ```
/// use ivdss_core::value::BusinessValue;
///
/// let bv = BusinessValue::new(1.0);
/// assert_eq!(bv.value(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct BusinessValue(f64);

impl BusinessValue {
    /// The unit business value used throughout the paper's figures (all
    /// information values there are plotted in `[0, 1]`).
    pub const UNIT: BusinessValue = BusinessValue(1.0);

    /// Creates a business value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not strictly positive and finite.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value > 0.0,
            "business value must be positive and finite, got {value}"
        );
        BusinessValue(value)
    }

    /// The raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Default for BusinessValue {
    fn default() -> Self {
        BusinessValue::UNIT
    }
}

impl fmt::Display for BusinessValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

/// A per-time-unit discount rate `λ ∈ [0, 1)`.
///
/// A rate of `0.1` means a report loses 10 % of its remaining value per
/// time unit of the corresponding latency.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DiscountRate(f64);

impl DiscountRate {
    /// The zero rate (no discounting).
    pub const ZERO: DiscountRate = DiscountRate(0.0);

    /// Creates a discount rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..1.0).contains(&rate),
            "discount rate must be in [0, 1), got {rate}"
        );
        DiscountRate(rate)
    }

    /// The raw rate.
    #[must_use]
    pub fn rate(self) -> f64 {
        self.0
    }

    /// The multiplicative discount factor `(1 − λ)^latency`.
    ///
    /// Negative latencies are clamped to zero (no *bonus* for clairvoyant
    /// reports).
    #[must_use]
    pub fn factor(self, latency: SimDuration) -> f64 {
        let l = latency.clamp_non_negative().value();
        (1.0 - self.0).powf(l)
    }

    /// The largest latency whose discount factor is still at least
    /// `threshold` (`0 < threshold ≤ 1`): solves `(1 − λ)^L ≥ threshold`.
    ///
    /// Returns `None` when the rate is zero (any latency qualifies). This
    /// is the bound the scatter-and-gather search uses: "just assume if
    /// synchronization latency will not result in any discount, how long
    /// can computational latency be if the information value is no less
    /// than opt" (§3.1).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `(0, 1]`.
    #[must_use]
    pub fn max_latency_for_factor(self, threshold: f64) -> Option<SimDuration> {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1], got {threshold}"
        );
        if self.0 == 0.0 {
            return None;
        }
        let l = threshold.ln() / (1.0 - self.0).ln();
        Some(SimDuration::new(l.max(0.0)))
    }
}

impl Default for DiscountRate {
    fn default() -> Self {
        DiscountRate::ZERO
    }
}

impl fmt::Display for DiscountRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ={:.3}", self.0)
    }
}

/// The pair of discount rates a user attaches to a report: computational
/// (`λ_CL`) and synchronization (`λ_SL`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiscountRates {
    /// Rate applied to computational latency.
    pub cl: DiscountRate,
    /// Rate applied to synchronization latency.
    pub sl: DiscountRate,
}

impl DiscountRates {
    /// Creates a rate pair from raw values.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1)`.
    #[must_use]
    pub fn new(cl: f64, sl: f64) -> Self {
        DiscountRates {
            cl: DiscountRate::new(cl),
            sl: DiscountRate::new(sl),
        }
    }

    /// The symmetric configuration used in the paper's Fig. 4 example
    /// (`λ_CL = λ_SL = 0.1`).
    #[must_use]
    pub fn paper_fig4() -> Self {
        DiscountRates::new(0.1, 0.1)
    }
}

impl fmt::Display for DiscountRates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λcl={:.3} λsl={:.3}", self.cl.rate(), self.sl.rate())
    }
}

/// A computed information value (`0 < IV ≤ BusinessValue`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct InformationValue(f64);

impl InformationValue {
    /// Computes `BV × (1 − λ_CL)^CL × (1 − λ_SL)^SL`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_core::value::{BusinessValue, DiscountRates, InformationValue};
    /// use ivdss_core::latency::Latencies;
    /// use ivdss_simkernel::time::SimDuration;
    ///
    /// // The paper's Fig. 4 scatter step: CL = SL = 10, λ = 0.1 each.
    /// let iv = InformationValue::compute(
    ///     BusinessValue::UNIT,
    ///     DiscountRates::paper_fig4(),
    ///     Latencies::new(SimDuration::new(10.0), SimDuration::new(10.0)),
    /// );
    /// assert!((iv.value() - 0.9f64.powi(20)).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn compute(bv: BusinessValue, rates: DiscountRates, latencies: Latencies) -> Self {
        let iv = bv.value()
            * rates.cl.factor(latencies.computational)
            * rates.sl.factor(latencies.synchronization);
        InformationValue(iv)
    }

    /// The raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for InformationValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IV={:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(cl: f64, sl: f64) -> Latencies {
        Latencies::new(SimDuration::new(cl), SimDuration::new(sl))
    }

    #[test]
    fn zero_latency_keeps_full_value() {
        let iv = InformationValue::compute(
            BusinessValue::new(5.0),
            DiscountRates::new(0.2, 0.3),
            lat(0.0, 0.0),
        );
        assert_eq!(iv.value(), 5.0);
    }

    #[test]
    fn formula_matches_paper() {
        // BV × (1-λcl)^CL × (1-λsl)^SL
        let iv = InformationValue::compute(
            BusinessValue::UNIT,
            DiscountRates::new(0.01, 0.05),
            lat(3.0, 7.0),
        );
        let expect = 0.99f64.powf(3.0) * 0.95f64.powf(7.0);
        assert!((iv.value() - expect).abs() < 1e-12);
    }

    #[test]
    fn iv_monotone_decreasing_in_latency() {
        let rates = DiscountRates::new(0.05, 0.05);
        let a = InformationValue::compute(BusinessValue::UNIT, rates, lat(1.0, 1.0));
        let b = InformationValue::compute(BusinessValue::UNIT, rates, lat(2.0, 1.0));
        let c = InformationValue::compute(BusinessValue::UNIT, rates, lat(2.0, 3.0));
        assert!(a.value() > b.value());
        assert!(b.value() > c.value());
    }

    #[test]
    fn zero_rates_ignore_latency() {
        let iv = InformationValue::compute(
            BusinessValue::UNIT,
            DiscountRates::default(),
            lat(100.0, 100.0),
        );
        assert_eq!(iv.value(), 1.0);
    }

    #[test]
    fn negative_latency_clamped() {
        let rate = DiscountRate::new(0.5);
        assert_eq!(rate.factor(SimDuration::new(-5.0)), 1.0);
    }

    #[test]
    fn max_latency_for_factor_inverts_factor() {
        let rate = DiscountRate::new(0.1);
        let bound = rate.max_latency_for_factor(0.5).unwrap();
        // factor(bound) == 0.5 up to rounding.
        assert!((rate.factor(bound) - 0.5).abs() < 1e-9);
        // The zero rate never bounds.
        assert_eq!(DiscountRate::ZERO.max_latency_for_factor(0.5), None);
        // threshold 1.0 → zero latency allowed.
        assert_eq!(rate.max_latency_for_factor(1.0), Some(SimDuration::ZERO));
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(BusinessValue::UNIT.to_string(), "1.0000");
        assert!(DiscountRate::new(0.05).to_string().contains("0.050"));
        assert!(DiscountRates::new(0.01, 0.05).to_string().contains("λsl"));
        assert!(InformationValue(0.5).to_string().contains("0.5"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_business_value_rejected() {
        let _ = BusinessValue::new(0.0);
    }

    #[test]
    #[should_panic(expected = "[0, 1)")]
    fn rate_of_one_rejected() {
        let _ = DiscountRate::new(1.0);
    }

    #[test]
    fn default_rates_are_zero() {
        let r = DiscountRates::default();
        assert_eq!(r.cl, DiscountRate::ZERO);
        assert_eq!(r.sl, DiscountRate::ZERO);
        assert_eq!(BusinessValue::default(), BusinessValue::UNIT);
    }
}
