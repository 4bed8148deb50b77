//! # ivdss-replication — synchronization timelines
//!
//! The dynamic side of the hybrid DSS architecture: *when* each local
//! replica is refreshed from its base table. Plan selection (in
//! `ivdss-core`) interrogates these timelines to timestamp the data a
//! candidate plan would read and to find the future synchronization points
//! that delayed plans wait for (paper §2, Fig. 1–4).
//!
//! * [`schedule::Schedule`] — one replica's completion timeline, either
//!   strictly periodic or an explicit/stochastic trace;
//! * [`timelines::SyncTimelines`] — per-table schedules derived from a
//!   [`ivdss_catalog::replica::ReplicationPlan`];
//! * [`events::SyncEventCursor`] — push-style delivery of completed syncs
//!   to online consumers (plan-cache invalidation in `ivdss-serve`).
//!
//! # Example
//!
//! ```
//! use ivdss_catalog::ids::TableId;
//! use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
//! use ivdss_replication::{SyncMode, SyncTimelines};
//! use ivdss_simkernel::time::SimTime;
//!
//! let mut plan = ReplicationPlan::new();
//! plan.add(TableId::new(0), ReplicaSpec::new(8.0));
//! plan.add(TableId::new(1), ReplicaSpec::new(2.0));
//! let tl = SyncTimelines::from_plan(&plan, SyncMode::Deterministic);
//!
//! // At t = 11 the two replicas were last synced at t = 8 and t = 10; a
//! // plan reading both sees data as stale as the earlier one.
//! let t = SimTime::new(11.0);
//! assert_eq!(tl.last_sync(TableId::new(0), t), Some(SimTime::new(8.0)));
//! assert_eq!(tl.last_sync(TableId::new(1), t), Some(SimTime::new(10.0)));
//! // The faster replica refreshes next, at t = 12.
//! assert_eq!(tl.next_sync(TableId::new(1), t), Some(SimTime::new(12.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod schedule;
pub mod timelines;

pub use events::{SyncEvent, SyncEventCursor, TimelineRevision};
pub use schedule::Schedule;
pub use timelines::{SyncMode, SyncTimelines};
