//! Order statistics and the result line.

/// Nearest-rank quantile `q` of `samples` (sorted in place).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn nearest_rank(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `samples` (sorted in place): the middle value, or the mean
/// of the two middle values.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Mean of `samples`, zero for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, zero when `whole` is zero.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// One reported metric.
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its unit. Values keep all their digits (Rust's shortest
/// round-trip form).
///
/// # Errors
///
/// Fails on a non-finite value, which JSON cannot carry.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
