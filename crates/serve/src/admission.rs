//! Bounded admission queue with IV-aware load shedding.
//!
//! When the serving engine cannot keep up, *something* must be dropped.
//! A FIFO tail-drop would discard the newest query regardless of worth;
//! the paper's economics say to discard the query whose loss costs the
//! least **information value**. Each queued query's *marginal IV* is
//! estimated as the IV of its always-feasible fallback plan — execute
//! immediately, all-remote — evaluated at the current time, then boosted
//! by the §3.3 aging term ([`AgingPolicy::effective_value`]) so that
//! long-waiting queries are not starved out by a stream of fresh
//! arrivals. When an arrival finds the queue full, the minimum-marginal-
//! IV query among *queue ∪ {arrival}* is shed — which may well be the
//! arrival itself, but never blindly the newest.
//!
//! The all-remote-immediate estimator is deliberately cheap (one
//! candidate, no search) and conservative: it is a lower bound on what
//! the planner can deliver, and it is the one candidate class whose IV
//! does not depend on sync phase, so ranking by it is stable while
//! queries wait.
//!
//! # Cached kernel rows
//!
//! Only a full queue ranks anything, and then it ranks every queued
//! query on every arrival. The cost-model estimate and the spanned
//! sites of the all-remote candidate depend only on the catalog, the
//! cost model and the query, never on the time, the timelines or the
//! queue estimator, so each entry keeps them as a one-row
//! [`SubsetArena`] (the all-remote row, `SubsetArena::build(ctx,
//! request, &[])`), built the first time the entry is ranked. A rank is
//! then one [`SubsetArena::score`] at the live instant: the same kernel
//! [`evaluate_plan`](ivdss_core::plan::evaluate_plan) runs on the same
//! cost and sites, so the marginal IV is bit-identical to evaluating the
//! all-remote plan. A queue that never fills builds no row. The queue
//! assumes one catalog and cost model across calls, as the engine's plan
//! cache does.

use std::collections::VecDeque;

use ivdss_core::plan::{PlanContext, QueryRequest, SubsetArena};
use ivdss_core::starvation::AgingPolicy;
use ivdss_costmodel::query::QueryId;
use ivdss_simkernel::time::SimTime;

/// A query waiting for dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedQuery {
    /// The pending request.
    pub request: QueryRequest,
    /// When it entered the queue.
    pub enqueued_at: SimTime,
}

/// What [`AdmissionQueue::offer`] did with an arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitOutcome {
    /// The queue had room; the arrival was appended.
    Admitted,
    /// The queue was full; the named *queued* query had the lowest
    /// marginal IV and was shed to make room for the arrival.
    AdmittedAfterShedding {
        /// The evicted query.
        shed: QueryId,
        /// Its marginal IV at eviction time.
        shed_marginal_iv: f64,
    },
    /// The queue was full and the arrival itself had the lowest marginal
    /// IV (ties favour the incumbents); it was not enqueued.
    Rejected {
        /// The arrival's marginal IV.
        marginal_iv: f64,
    },
}

/// Estimates the marginal information value of `request` at `now`: the
/// IV of the immediate all-remote fallback plan, aged by how long the
/// query has already waited.
#[must_use]
pub fn marginal_iv(
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    now: SimTime,
    aging: AgingPolicy,
) -> f64 {
    ranked(ctx, &all_remote_row(ctx, request), request, now, aging)
}

/// The kernel row of `request`'s all-remote plan.
fn all_remote_row(ctx: &PlanContext<'_>, request: &QueryRequest) -> SubsetArena {
    SubsetArena::build(ctx, request, &[])
}

/// [`marginal_iv`] scored over `request`'s all-remote `row`.
fn ranked(
    ctx: &PlanContext<'_>,
    row: &SubsetArena,
    request: &QueryRequest,
    now: SimTime,
    aging: AgingPolicy,
) -> f64 {
    let wave = row.wave(ctx, now.max(request.submitted_at));
    let iv = row.score(ctx, request, &wave, 0).information_value;
    let waiting = (now - request.submitted_at).clamp_non_negative();
    aging.effective_value(iv, waiting)
}

/// A bounded FIFO queue whose overflow policy sheds by minimum marginal
/// IV.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    /// Each queued query with its all-remote kernel row, built the first
    /// time the entry is ranked (see the module docs).
    entries: VecDeque<(QueuedQuery, Option<SubsetArena>)>,
    capacity: usize,
    aging: AgingPolicy,
}

impl AdmissionQueue {
    /// Creates a queue holding at most `capacity` queries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize, aging: AgingPolicy) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        AdmissionQueue {
            entries: VecDeque::new(),
            capacity,
            aging,
        }
    }

    /// Queued queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The oldest queued query, if any.
    #[must_use]
    pub fn peek(&self) -> Option<&QueuedQuery> {
        self.entries.front().map(|(queued, _)| queued)
    }

    /// Removes and returns the oldest queued query.
    pub fn pop_front(&mut self) -> Option<QueuedQuery> {
        self.entries.pop_front().map(|(queued, _)| queued)
    }

    /// Removes and returns the *youngest* queued query — the
    /// work-stealing victim: it is last in FIFO order, so taking it
    /// never reorders or delays the queries ahead of it.
    pub fn pop_back(&mut self) -> Option<QueuedQuery> {
        self.entries.pop_back().map(|(queued, _)| queued)
    }

    /// Iterates the queued queries in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedQuery> {
        self.entries.iter().map(|(queued, _)| queued)
    }

    /// Offers `request` to the queue at `now`. With room it is simply
    /// appended; at capacity the minimum-marginal-IV query among the
    /// queue plus the arrival is shed (ties keep the incumbents).
    ///
    /// # Examples
    ///
    /// A full queue sheds the lowest-value query — here the cheap
    /// incumbent, not the newest arrival:
    ///
    /// ```
    /// use ivdss_catalog::ids::TableId;
    /// use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    /// use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
    /// use ivdss_core::starvation::AgingPolicy;
    /// use ivdss_core::value::{BusinessValue, DiscountRates};
    /// use ivdss_costmodel::model::StylizedCostModel;
    /// use ivdss_costmodel::query::{QueryId, QuerySpec};
    /// use ivdss_replication::timelines::{SyncMode, SyncTimelines};
    /// use ivdss_serve::admission::{AdmissionQueue, AdmitOutcome};
    /// use ivdss_simkernel::time::SimTime;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let catalog = synthetic_catalog(&SyntheticConfig {
    ///     tables: 2, sites: 2, replicated_tables: 0, ..SyntheticConfig::default()
    /// })?;
    /// let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    /// let model = StylizedCostModel::paper_fig4();
    /// let ctx = PlanContext {
    ///     catalog: &catalog,
    ///     timelines: &timelines,
    ///     model: &model,
    ///     rates: DiscountRates::new(0.01, 0.05),
    ///     queues: &NoQueues,
    /// };
    /// let request = |id: u64, bv: f64| {
    ///     QueryRequest::new(
    ///         QuerySpec::new(QueryId::new(id), vec![TableId::new(0)]),
    ///         SimTime::new(1.0),
    ///     )
    ///     .with_business_value(BusinessValue::new(bv))
    /// };
    ///
    /// let mut queue = AdmissionQueue::new(1, AgingPolicy::DISABLED);
    /// assert_eq!(
    ///     queue.offer(&ctx, request(1, 1.0), SimTime::new(1.0)),
    ///     AdmitOutcome::Admitted
    /// );
    /// // Queue full: the high-value arrival displaces the incumbent.
    /// let outcome = queue.offer(&ctx, request(2, 50.0), SimTime::new(1.0));
    /// assert!(matches!(
    ///     outcome,
    ///     AdmitOutcome::AdmittedAfterShedding { shed, .. } if shed == QueryId::new(1)
    /// ));
    /// # Ok(())
    /// # }
    /// ```
    pub fn offer(
        &mut self,
        ctx: &PlanContext<'_>,
        request: QueryRequest,
        now: SimTime,
    ) -> AdmitOutcome {
        self.push(
            ctx,
            QueuedQuery {
                request,
                enqueued_at: now,
            },
            now,
        )
    }

    /// Offers an *already-queued* query — a work-stealing transfer or a
    /// failover from another engine's queue — preserving its original
    /// enqueue time so waiting and §3.3 aging accounting stay honest.
    /// The capacity policy is identical to [`AdmissionQueue::offer`]:
    /// with room the entry is appended; at capacity the minimum-
    /// marginal-IV query among the queue plus the arrival is shed (ties
    /// keep the incumbents).
    pub fn push(
        &mut self,
        ctx: &PlanContext<'_>,
        queued: QueuedQuery,
        now: SimTime,
    ) -> AdmitOutcome {
        if self.entries.len() < self.capacity {
            self.entries.push_back((queued, None));
            return AdmitOutcome::Admitted;
        }

        let aging = self.aging;
        let row = all_remote_row(ctx, &queued.request);
        let incoming_iv = ranked(ctx, &row, &queued.request, now, aging);
        let victim = self
            .entries
            .iter_mut()
            .enumerate()
            .map(|(idx, (q, row))| {
                let row = row.get_or_insert_with(|| all_remote_row(ctx, &q.request));
                (idx, ranked(ctx, row, &q.request, now, aging))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match victim {
            Some((idx, queued_iv)) if queued_iv < incoming_iv => {
                let (shed, _) = self.entries.remove(idx).expect("victim index is in bounds");
                self.entries.push_back((queued, Some(row)));
                AdmitOutcome::AdmittedAfterShedding {
                    shed: shed.request.id(),
                    shed_marginal_iv: queued_iv,
                }
            }
            _ => AdmitOutcome::Rejected {
                marginal_iv: incoming_iv,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::catalog::Catalog;
    use ivdss_catalog::ids::TableId;
    use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_core::plan::NoQueues;
    use ivdss_core::value::{BusinessValue, DiscountRates};
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::QuerySpec;
    use ivdss_replication::timelines::{SyncMode, SyncTimelines};

    fn fixture() -> (Catalog, SyncTimelines, StylizedCostModel) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 3,
            sites: 2,
            replicated_tables: 0,
            seed: 11,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        plan.add(TableId::new(0), ReplicaSpec::new(5.0));
        let catalog = base.with_replication(plan).unwrap();
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        (catalog, timelines, StylizedCostModel::paper_fig4())
    }

    fn request(id: u64, bv: f64, submitted: f64) -> QueryRequest {
        QueryRequest::new(
            QuerySpec::new(QueryId::new(id), vec![TableId::new(0), TableId::new(1)]),
            SimTime::new(submitted),
        )
        .with_business_value(BusinessValue::new(bv))
    }

    #[test]
    fn admits_until_capacity() {
        let (catalog, timelines, model) = fixture();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.05, 0.05),
            queues: &NoQueues,
        };
        let mut q = AdmissionQueue::new(2, AgingPolicy::DISABLED);
        assert_eq!(
            q.offer(&ctx, request(0, 1.0, 0.0), SimTime::ZERO),
            AdmitOutcome::Admitted
        );
        assert_eq!(
            q.offer(&ctx, request(1, 1.0, 0.0), SimTime::ZERO),
            AdmitOutcome::Admitted
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn full_queue_sheds_lowest_marginal_iv_not_newest() {
        let (catalog, timelines, model) = fixture();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.05, 0.05),
            queues: &NoQueues,
        };
        let mut q = AdmissionQueue::new(2, AgingPolicy::DISABLED);
        q.offer(&ctx, request(0, 0.1, 0.0), SimTime::ZERO); // cheap incumbent
        q.offer(&ctx, request(1, 5.0, 0.0), SimTime::ZERO); // valuable incumbent
                                                            // A valuable arrival displaces the cheap incumbent, not itself.
        let outcome = q.offer(&ctx, request(2, 1.0, 0.0), SimTime::ZERO);
        match outcome {
            AdmitOutcome::AdmittedAfterShedding { shed, .. } => {
                assert_eq!(shed, QueryId::new(0));
            }
            other => panic!("expected eviction of query 0, got {other:?}"),
        }
        let ids: Vec<QueryId> = q.iter().map(|e| e.request.id()).collect();
        assert_eq!(ids, vec![QueryId::new(1), QueryId::new(2)]);
    }

    #[test]
    fn worthless_arrival_is_rejected() {
        let (catalog, timelines, model) = fixture();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.05, 0.05),
            queues: &NoQueues,
        };
        let mut q = AdmissionQueue::new(1, AgingPolicy::DISABLED);
        q.offer(&ctx, request(0, 5.0, 0.0), SimTime::ZERO);
        match q.offer(&ctx, request(1, 0.1, 0.0), SimTime::ZERO) {
            AdmitOutcome::Rejected { marginal_iv } => assert!(marginal_iv > 0.0),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(q.peek().unwrap().request.id(), QueryId::new(0));
    }

    #[test]
    fn equal_value_ties_keep_incumbents() {
        let (catalog, timelines, model) = fixture();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.05, 0.05),
            queues: &NoQueues,
        };
        let mut q = AdmissionQueue::new(1, AgingPolicy::DISABLED);
        q.offer(&ctx, request(0, 1.0, 0.0), SimTime::ZERO);
        assert!(matches!(
            q.offer(&ctx, request(1, 1.0, 0.0), SimTime::ZERO),
            AdmitOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn pop_back_steals_the_youngest() {
        let (catalog, timelines, model) = fixture();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.05, 0.05),
            queues: &NoQueues,
        };
        let mut q = AdmissionQueue::new(4, AgingPolicy::DISABLED);
        q.offer(&ctx, request(0, 1.0, 0.0), SimTime::ZERO);
        q.offer(&ctx, request(1, 1.0, 1.0), SimTime::new(1.0));
        let stolen = q.pop_back().expect("two entries queued");
        assert_eq!(stolen.request.id(), QueryId::new(1));
        assert_eq!(stolen.enqueued_at, SimTime::new(1.0));
        assert_eq!(q.peek().unwrap().request.id(), QueryId::new(0));
    }

    #[test]
    fn push_preserves_enqueue_time_and_sheds_at_capacity() {
        let (catalog, timelines, model) = fixture();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.05, 0.05),
            queues: &NoQueues,
        };
        let mut q = AdmissionQueue::new(1, AgingPolicy::DISABLED);
        let transferred = QueuedQuery {
            request: request(7, 5.0, 0.0),
            enqueued_at: SimTime::new(0.5),
        };
        assert_eq!(
            q.push(&ctx, transferred, SimTime::new(2.0)),
            AdmitOutcome::Admitted
        );
        assert_eq!(q.peek().unwrap().enqueued_at, SimTime::new(0.5));
        // At capacity the same IV-aware shedding applies: a cheap
        // transfer is rejected, a valuable one displaces the incumbent.
        let cheap = QueuedQuery {
            request: request(8, 0.01, 2.0),
            enqueued_at: SimTime::new(2.0),
        };
        assert!(matches!(
            q.push(&ctx, cheap, SimTime::new(2.0)),
            AdmitOutcome::Rejected { .. }
        ));
        let rich = QueuedQuery {
            request: request(9, 50.0, 2.0),
            enqueued_at: SimTime::new(2.0),
        };
        assert!(matches!(
            q.push(&ctx, rich, SimTime::new(2.0)),
            AdmitOutcome::AdmittedAfterShedding { shed, .. } if shed == QueryId::new(7)
        ));
    }

    #[test]
    fn aging_protects_long_waiters() {
        let (catalog, timelines, model) = fixture();
        let rates = DiscountRates::new(0.05, 0.05);
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates,
            queues: &NoQueues,
        };
        // The waiter submitted long ago; without aging its discounted IV
        // is far below a fresh arrival's.
        let waiter = request(0, 1.0, 0.0);
        let fresh = request(1, 1.0, 100.0);
        let now = SimTime::new(100.0);
        let plain = AgingPolicy::DISABLED;
        assert!(marginal_iv(&ctx, &waiter, now, plain) < marginal_iv(&ctx, &fresh, now, plain));
        // An outpacing aging rate inverts the ranking, so the waiter is
        // no longer the shedding victim.
        let aging = AgingPolicy::outpacing(rates, 0.01);
        assert!(marginal_iv(&ctx, &waiter, now, aging) > marginal_iv(&ctx, &fresh, now, aging));
    }
}
