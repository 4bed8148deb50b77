//! Adaptive synchronization scheduling — refresh schedules as a
//! *decision variable*.
//!
//! The paper treats sync timelines as a given input to query planning:
//! replicas refresh on fixed periodic schedules and the planner works
//! around the staleness that induces. This crate inverts that. Given
//!
//! * a per-table refresh-cost model ([`RefreshCosts`]),
//! * a total refresh budget — by construction, exactly what the paper's
//!   fixed schedules spend over the horizon ([`fixed_budget`]), and
//! * a seeded query workload,
//!
//! it searches the space of synchronization schedules for the one that
//! maximizes expected **workload information value**, evaluating every
//! candidate with the same planner and cost model the serving path uses
//! ([`ScheduleEvaluator`] wraps `mqo::WorkloadEvaluator`), so schedule
//! fitness and query planning share one source of truth.
//!
//! Two optimizers are layered on one allocation representation
//! ([`ScheduleAllocation`]: per-table refresh counts over a horizon):
//!
//! * **Greedy marginal-IV** ([`greedy_schedule`]): repeatedly buy the
//!   refresh with the highest workload-IV gain per unit cost until the
//!   budget runs out or no refresh gains.
//! * **GA search** ([`AdaptiveScheduler::optimize`] with
//!   [`AdaptiveConfig::ga`]): refresh increments become genome items
//!   ([`UpgradePool`]); `ga::optimize_permutation` searches item
//!   orders, each decoded by spending the budget left-to-right.
//!
//! The committed result is **never worse than the fixed schedules**: the
//! fixed timelines stay in the candidate set and
//! [`AdaptiveScheduler::optimize`] only displaces them on a strict
//! workload-IV improvement. The 120-seed differential suite
//! (`tests/adaptive_differential.rs`) pins this on every seed.
//!
//! Schedules are emitted as ordinary `SyncTimelines`
//! ([`ScheduleAllocation::to_timelines`]) and re-scheduling decisions as
//! ordinary `TimelineRevision`s ([`reschedule_revisions`]), so serve,
//! cluster, faults, obs and net consume them unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod cost;
pub mod evaluate;
pub mod genome;
pub mod greedy;
pub mod optimizer;
pub mod revise;

pub use alloc::ScheduleAllocation;
pub use cost::{fixed_budget, RefreshCosts};
pub use evaluate::ScheduleEvaluator;
pub use genome::UpgradePool;
pub use greedy::{greedy_schedule, GreedyOutcome, GreedyPick};
pub use optimizer::{
    AdaptiveConfig, AdaptiveOutcome, AdaptiveScheduler, GaScheduleOutcome, ScheduleSource,
};
pub use revise::reschedule_revisions;
