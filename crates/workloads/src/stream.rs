//! Query arrival streams.
//!
//! The paper drives arrivals with an exponential stream: "the
//! ExponentialStream class … is adopted to simulate data synchronization
//! and query arrival stream. In our experiments, we vary the rate between
//! query arrival frequency (Fq) and synchronization frequency (Fs) from
//! 1:0.1 to 1:20" (§4.1). [`ArrivalStream`] instantiates query templates
//! at exponentially spaced submission times, cycling through the template
//! set.

use ivdss_core::plan::QueryRequest;
use ivdss_core::value::BusinessValue;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_simkernel::rng::{ExponentialStream, Stream};
use ivdss_simkernel::time::SimTime;

/// The Fq:Fs frequency ratio of the paper's experiments.
///
/// `Fq` is the query arrival frequency and `Fs` the synchronization
/// frequency; given a mean inter-arrival time, the mean synchronization
/// period follows from the ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyRatio {
    /// Synchronizations per query arrival (`Fs/Fq`); the paper's "1:x"
    /// notation means `x` here.
    pub sync_per_query: f64,
}

impl FrequencyRatio {
    /// Creates a ratio `1:x` (x synchronizations per query arrival).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not strictly positive and finite.
    #[must_use]
    pub fn one_to(x: f64) -> Self {
        assert!(x.is_finite() && x > 0.0, "ratio must be positive");
        FrequencyRatio { sync_per_query: x }
    }

    /// The four ratios of Fig. 5: 1:0.1, 1:1, 1:10, 1:20.
    #[must_use]
    pub fn paper_fig5() -> [FrequencyRatio; 4] {
        [
            FrequencyRatio::one_to(0.1),
            FrequencyRatio::one_to(1.0),
            FrequencyRatio::one_to(10.0),
            FrequencyRatio::one_to(20.0),
        ]
    }

    /// Mean synchronization period implied by a mean inter-arrival time:
    /// syncs happen `sync_per_query` times as often as arrivals.
    #[must_use]
    pub fn sync_period(&self, mean_interarrival: f64) -> f64 {
        mean_interarrival / self.sync_per_query
    }

    /// The conventional "1:x" label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("1:{}", self.sync_per_query)
    }
}

/// Generates a stream of [`QueryRequest`]s from a set of templates.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    templates: Vec<QuerySpec>,
    interarrival: ExponentialStream,
    business_value: BusinessValue,
    next_index: usize,
    next_id: u64,
    now: SimTime,
}

impl ArrivalStream {
    /// Creates a stream cycling through `templates` with exponential
    /// inter-arrival times of the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `templates` is empty or `mean_interarrival` is not
    /// strictly positive and finite.
    #[must_use]
    pub fn new(templates: Vec<QuerySpec>, mean_interarrival: f64, seed: u64) -> Self {
        assert!(!templates.is_empty(), "need at least one query template");
        ArrivalStream {
            templates,
            interarrival: ExponentialStream::new(mean_interarrival, seed),
            business_value: BusinessValue::UNIT,
            next_index: 0,
            next_id: 0,
            now: SimTime::ZERO,
        }
    }

    /// Sets the business value assigned to every generated request.
    #[must_use]
    pub fn with_business_value(mut self, bv: BusinessValue) -> Self {
        self.business_value = bv;
        self
    }

    /// Generates the next arrival.
    pub fn next_request(&mut self) -> QueryRequest {
        self.now += self.interarrival.next_duration();
        let template = &self.templates[self.next_index];
        self.next_index = (self.next_index + 1) % self.templates.len();
        let spec = template.with_id(QueryId::new(self.next_id));
        self.next_id += 1;
        QueryRequest {
            query: spec,
            business_value: self.business_value,
            submitted_at: self.now,
        }
    }

    /// Generates the first `count` arrivals.
    #[must_use]
    pub fn take_requests(&mut self, count: usize) -> Vec<QueryRequest> {
        (0..count).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::TableId;

    fn templates() -> Vec<QuerySpec> {
        vec![
            QuerySpec::new(QueryId::new(0), vec![TableId::new(0)]),
            QuerySpec::new(QueryId::new(1), vec![TableId::new(1), TableId::new(2)]),
        ]
    }

    #[test]
    fn arrivals_are_increasing_and_cycle_templates() {
        let mut stream = ArrivalStream::new(templates(), 5.0, 1);
        let reqs = stream.take_requests(6);
        for w in reqs.windows(2) {
            assert!(w[1].submitted_at >= w[0].submitted_at);
        }
        // Templates cycle 0,1,0,1,…
        assert_eq!(reqs[0].query.table_count(), 1);
        assert_eq!(reqs[1].query.table_count(), 2);
        assert_eq!(reqs[2].query.table_count(), 1);
        // Fresh ids per instance.
        assert_eq!(reqs[3].id().raw(), 3);
    }

    #[test]
    fn stream_is_deterministic() {
        let a = ArrivalStream::new(templates(), 5.0, 9).take_requests(10);
        let b = ArrivalStream::new(templates(), 5.0, 9).take_requests(10);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_interarrival_close_to_target() {
        let mut stream = ArrivalStream::new(templates(), 4.0, 3);
        let reqs = stream.take_requests(20_000);
        let span = reqs.last().unwrap().submitted_at.value();
        let mean = span / reqs.len() as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn business_value_applies() {
        let mut stream =
            ArrivalStream::new(templates(), 5.0, 1).with_business_value(BusinessValue::new(3.0));
        assert_eq!(stream.next_request().business_value.value(), 3.0);
    }

    #[test]
    fn frequency_ratio_periods() {
        let r = FrequencyRatio::one_to(10.0);
        // Queries every 20 time units → syncs every 2.
        assert_eq!(r.sync_period(20.0), 2.0);
        assert_eq!(r.label(), "1:10");
        assert_eq!(FrequencyRatio::paper_fig5().len(), 4);
        // 1:0.1 means syncs are 10× rarer than queries.
        assert_eq!(FrequencyRatio::one_to(0.1).sync_period(20.0), 200.0);
    }

    #[test]
    #[should_panic(expected = "at least one query template")]
    fn empty_templates_rejected() {
        let _ = ArrivalStream::new(vec![], 5.0, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_ratio_rejected() {
        let _ = FrequencyRatio::one_to(0.0);
    }
}
