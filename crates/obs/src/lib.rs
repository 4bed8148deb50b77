//! Deterministic structured observability for the IVDSS stack.
//!
//! The paper's whole argument is temporal — *when* a plan runs decides
//! the information value it delivers — yet aggregates alone cannot show
//! where, per query, latency accrued or why the scatter-and-gather
//! search picked its plan. This crate is the missing layer: a
//! structured-event trace keyed by **sim time** (never wall time), plus
//! exact-merge histograms and per-query plan-decision audits, all built
//! so that *identical seeded runs produce byte-identical traces*.
//!
//! Three properties carry everything:
//!
//! * **Deterministic** — events carry [`SimTime`] stamps and are emitted
//!   only from sequential code paths (the serving engine's pipeline and
//!   the plan search), so emission order is a pure function of the
//!   inputs. Rendering uses Rust's shortest-round-trip `f64` formatting,
//!   which is itself deterministic. Golden-trace tests diff runs byte for
//!   byte.
//! * **Cheap when off** — instrumented code holds a [`Tracer`] handle;
//!   a disabled tracer makes [`Tracer::emit_with`] skip the closure
//!   entirely, so hot paths pay one branch, not an allocation.
//! * **Exact** — [`FixedHistogram`] places samples by binary search over
//!   precomputed bin edges, so representable boundary values land
//!   deterministically (lower edge inclusive), and
//!   [`FixedHistogram::merge`] is exact: merged counts and quantiles
//!   equal a single-pass histogram over the union of the samples.
//!
//! The crate deliberately depends only on `simkernel`, `catalog` and
//! `costmodel`, so every higher layer — core search, replication,
//! faults, the serving engine, dsim experiments — can emit into one
//! shared [`Trace`]. Events therefore carry primitive identifiers
//! ([`TableId`], [`SiteId`], [`QueryId`]) rather than rich plan types.
//!
//! [`TableId`]: ivdss_catalog::ids::TableId
//! [`SiteId`]: ivdss_catalog::ids::SiteId
//! [`QueryId`]: ivdss_costmodel::query::QueryId
//! [`SimTime`]: ivdss_simkernel::time::SimTime
//! [`FixedHistogram`]: crate::hist::FixedHistogram
//! [`FixedHistogram::merge`]: crate::hist::FixedHistogram::merge
//!
//! # Examples
//!
//! ```
//! use ivdss_obs::event::EventKind;
//! use ivdss_obs::trace::{Trace, Tracer};
//! use ivdss_simkernel::time::SimTime;
//! use std::sync::Arc;
//!
//! let trace = Arc::new(Trace::new());
//! let tracer = Tracer::recording(Arc::clone(&trace));
//! tracer.emit_with(SimTime::new(3.0), || EventKind::CacheInvalidated { evicted: 2 });
//!
//! // A disabled tracer never runs the closure.
//! let off = Tracer::disabled();
//! off.emit_with(SimTime::ZERO, || unreachable!("never constructed"));
//!
//! assert_eq!(trace.len(), 1);
//! assert_eq!(trace.render(), "t=3 cache_invalidated evicted=2\n");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod event;
pub mod hist;
pub mod trace;

pub use audit::{AuditLog, BoundStep, PlanAudit, PlanSource, SearchAudit, SearchCandidate};
pub use event::{AdmissionVerdict, EventKind, TraceEvent};
pub use hist::FixedHistogram;
pub use trace::{Trace, Tracer};
