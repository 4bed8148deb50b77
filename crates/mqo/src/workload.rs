//! Workload formation (paper §3.2, step 1).
//!
//! "For each query, we perform a query plan selection task as described
//! earlier and derive a range along the time axis that the query may run.
//! If the ranges of more than two queries are overlapped, we group them
//! into a workload for the next step."
//!
//! A query's *execution range* spans from its submission to the boundary
//! of its plan search (the latest release time that could still improve
//! its information value). Queries whose ranges overlap compete for the
//! same servers in the same period, so they are optimized together;
//! [`form_workloads`] computes the connected components of the interval
//! overlap graph with a sweep.

use ivdss_core::plan::{PlanContext, PlanError, QueryRequest};
use ivdss_core::search::ScatterGatherSearch;
use ivdss_costmodel::query::QueryId;
use ivdss_simkernel::time::SimTime;

/// The time range along which one query may run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionRange {
    /// The query.
    pub query: QueryId,
    /// Range start (the query's submission time).
    pub start: SimTime,
    /// Range end (latest useful release time, plus the plan's service
    /// time).
    pub end: SimTime,
}

impl ExecutionRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    #[must_use]
    pub fn new(query: QueryId, start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "range end must not precede start");
        ExecutionRange { query, start, end }
    }

    /// Returns `true` if the two ranges overlap (closed intervals).
    #[must_use]
    pub fn overlaps(&self, other: &ExecutionRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

/// Derives the execution range of each request by running the IVQP plan
/// search: the range spans from submission to
/// `max(search boundary, chosen finish)`.
///
/// # Errors
///
/// Propagates [`PlanError`] from the plan search.
pub fn execution_ranges(
    ctx: &PlanContext<'_>,
    requests: &[QueryRequest],
) -> Result<Vec<ExecutionRange>, PlanError> {
    let search = ScatterGatherSearch::new();
    requests
        .iter()
        .map(|req| {
            let outcome = search.search_from(ctx, req, req.submitted_at)?;
            let end = outcome.boundary.max(outcome.best.finish);
            Ok(ExecutionRange::new(req.id(), req.submitted_at, end))
        })
        .collect()
}

/// Groups ranges into workloads: connected components of the interval
/// overlap graph, each sorted by range start. Singleton components are
/// workloads of one (no multi-query optimization needed).
///
/// # Examples
///
/// ```
/// use ivdss_costmodel::query::QueryId;
/// use ivdss_mqo::workload::{form_workloads, ExecutionRange};
/// use ivdss_simkernel::time::SimTime;
///
/// let r = |q: u64, a: f64, b: f64| {
///     ExecutionRange::new(QueryId::new(q), SimTime::new(a), SimTime::new(b))
/// };
/// // 0–2 chain via transitive overlap; 3 is isolated.
/// let groups = form_workloads(&[r(0, 0.0, 5.0), r(1, 4.0, 9.0), r(2, 8.0, 12.0), r(3, 20.0, 25.0)]);
/// assert_eq!(groups.len(), 2);
/// assert_eq!(groups[0].len(), 3);
/// assert_eq!(groups[1], vec![QueryId::new(3)]);
/// ```
#[must_use]
pub fn form_workloads(ranges: &[ExecutionRange]) -> Vec<Vec<QueryId>> {
    let mut sorted: Vec<ExecutionRange> = ranges.to_vec();
    sorted.sort_by(|a, b| a.start.cmp(&b.start).then_with(|| a.query.cmp(&b.query)));

    let mut groups: Vec<Vec<QueryId>> = Vec::new();
    let mut current: Vec<QueryId> = Vec::new();
    let mut current_end: Option<SimTime> = None;
    for range in sorted {
        match current_end {
            Some(end) if range.start <= end => {
                current.push(range.query);
                current_end = Some(end.max(range.end));
            }
            _ => {
                if !current.is_empty() {
                    groups.push(std::mem::take(&mut current));
                }
                current.push(range.query);
                current_end = Some(range.end);
            }
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(q: u64, a: f64, b: f64) -> ExecutionRange {
        ExecutionRange::new(QueryId::new(q), SimTime::new(a), SimTime::new(b))
    }

    #[test]
    fn overlap_predicate() {
        assert!(r(0, 0.0, 5.0).overlaps(&r(1, 5.0, 9.0))); // touching counts
        assert!(r(0, 0.0, 5.0).overlaps(&r(1, 2.0, 3.0))); // containment
        assert!(!r(0, 0.0, 5.0).overlaps(&r(1, 5.1, 9.0)));
    }

    #[test]
    fn disjoint_ranges_form_singletons() {
        let groups = form_workloads(&[r(0, 0.0, 1.0), r(1, 2.0, 3.0), r(2, 4.0, 5.0)]);
        assert_eq!(groups.len(), 3);
        for g in &groups {
            assert_eq!(g.len(), 1);
        }
    }

    #[test]
    fn transitive_overlap_merges() {
        // 0 overlaps 1, 1 overlaps 2, 0 does not overlap 2 — still one group.
        let groups = form_workloads(&[r(0, 0.0, 4.0), r(1, 3.0, 8.0), r(2, 7.0, 10.0)]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn unsorted_input_handled() {
        let groups = form_workloads(&[r(2, 8.0, 9.0), r(0, 0.0, 1.0), r(1, 0.5, 8.5)]);
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(form_workloads(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "precede")]
    fn inverted_range_rejected() {
        let _ = r(0, 5.0, 1.0);
    }
}
