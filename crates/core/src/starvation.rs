//! Starvation avoidance (paper §3.3).
//!
//! The IV formula "favors immediate execution since the decrease in
//! information value decreases as time passes and this may result in
//! starvation for some queries … To prevent starvation of queries, we
//! adapt the information value formula by adding a function of time values
//! to increase the information value of queries queued for a period. Note
//! that the function of time value is designed to increase information
//! value faster than to be discounted by SL and CL."
//!
//! [`AgingPolicy`] implements that adaptation: the *effective* (scheduling)
//! value of a queued query grows as `(1 + α)^wait`, which for
//! `α > λ_CL + λ_SL` outpaces the combined exponential discount, so a
//! sufficiently old query eventually outranks any newcomer.

use ivdss_simkernel::time::SimDuration;

use crate::value::{DiscountRates, InformationValue};

/// Aging policy boosting the scheduling priority of long-queued queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingPolicy {
    rate: f64,
}

impl AgingPolicy {
    /// No aging: effective value equals the plain information value (the
    /// configuration all the paper's headline experiments use).
    pub const DISABLED: AgingPolicy = AgingPolicy { rate: 0.0 };

    /// Creates an aging policy with per-time-unit growth rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "aging rate must be non-negative and finite"
        );
        AgingPolicy { rate }
    }

    /// An aging policy guaranteed to outgrow the discount of `rates` (the
    /// paper's requirement that the time function "increase information
    /// value faster than to be discounted by SL and CL"): choosing
    /// `1 + α = 1 / ((1 − λ_CL)(1 − λ_SL)) + margin` makes the boosted
    /// value of a query non-decreasing even while it pays one unit of both
    /// CL and SL per unit of waiting.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is negative or not finite.
    #[must_use]
    pub fn outpacing(rates: DiscountRates, margin: f64) -> Self {
        assert!(
            margin.is_finite() && margin >= 0.0,
            "margin must be non-negative and finite"
        );
        let reciprocal = 1.0 / ((1.0 - rates.cl.rate()) * (1.0 - rates.sl.rate()));
        AgingPolicy::new(reciprocal - 1.0 + margin)
    }

    /// The growth rate α.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The effective scheduling value of a query that has waited `waiting`
    /// and whose best achievable plan currently delivers `iv`:
    /// `iv × (1 + α)^waiting`.
    ///
    /// The boost applies only to *scheduling priority*; the delivered
    /// information value of the final report is still the plain IV.
    #[must_use]
    pub fn effective_value(&self, iv: InformationValue, waiting: SimDuration) -> f64 {
        let w = waiting.clamp_non_negative().value();
        iv.value() * (1.0 + self.rate).powf(w)
    }
}

impl Default for AgingPolicy {
    fn default() -> Self {
        AgingPolicy::DISABLED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::Latencies;
    use crate::value::BusinessValue;
    use ivdss_simkernel::time::SimDuration;

    fn iv(v: f64) -> InformationValue {
        let zero = Latencies::new(SimDuration::ZERO, SimDuration::ZERO);
        InformationValue::compute(BusinessValue::new(v), DiscountRates::default(), zero)
    }

    #[test]
    fn disabled_policy_is_identity() {
        let p = AgingPolicy::DISABLED;
        assert_eq!(p.rate(), 0.0);
        assert_eq!(p.effective_value(iv(0.5), SimDuration::new(100.0)), 0.5);
    }

    #[test]
    fn boost_grows_with_waiting_time() {
        let p = AgingPolicy::new(0.2);
        let short = p.effective_value(iv(0.5), SimDuration::new(1.0));
        let long = p.effective_value(iv(0.5), SimDuration::new(10.0));
        assert!(long > short);
        assert!(short > 0.5);
    }

    #[test]
    fn negative_waiting_clamped() {
        let p = AgingPolicy::new(0.2);
        assert_eq!(p.effective_value(iv(0.5), SimDuration::new(-3.0)), 0.5);
    }

    #[test]
    fn outpacing_beats_combined_discount() {
        // A query queued for time w loses (1-λcl)^w (it will pay at least w
        // of CL); the outpacing boost must more than compensate.
        let rates = DiscountRates::new(0.05, 0.1);
        let p = AgingPolicy::outpacing(rates, 0.01);
        assert!(p.rate() > rates.cl.rate() + rates.sl.rate());
        let base = InformationValue::compute(
            BusinessValue::UNIT,
            rates,
            Latencies::new(SimDuration::ZERO, SimDuration::ZERO),
        );
        for w in [1.0, 5.0, 20.0, 50.0] {
            let discounted = InformationValue::compute(
                BusinessValue::UNIT,
                rates,
                Latencies::new(SimDuration::new(w), SimDuration::new(w)),
            );
            let boosted = p.effective_value(discounted, SimDuration::new(w));
            assert!(
                boosted >= base.value(),
                "w={w}: boosted {boosted} vs base {}",
                base.value()
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_rejected() {
        let _ = AgingPolicy::new(-0.1);
    }
}
