//! Measured-scan calibration of the analytic cost model.
//!
//! `ivdss-storage` executes real scans and reports one
//! [`CalibrationSample`] per scan — the bytes the table spans in the
//! catalog and the deterministic measured latency the device profile
//! charged for it. [`fit_local`] regresses those samples with closed-form
//! ordinary least squares into a [`LocalFit`]
//! (`seconds ≈ overhead + secs_per_byte × bytes`), whose predictions the
//! calibration study compares with the analytic model's
//! (`bytes ÷ local_scan_rate`) on held-out scans. Summation order in the
//! fit is fixed (sample order), so identical samples produce bit-identical
//! coefficients — the regression suite pins them.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
