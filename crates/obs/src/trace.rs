//! The event sink ([`Trace`]) and the cheap emission handle
//! ([`Tracer`]) instrumented code holds.
//!
//! A [`Trace`] is an append-only, in-emission-order event log behind a
//! mutex (instrumented call sites take `&self`, and the engine shares
//! one trace across crates). Determinism does not come from the lock —
//! it comes from the discipline that events are only emitted from
//! sequential code paths, so the emission order is a pure function of
//! the run's inputs. The golden-trace suite enforces the consequence:
//! identical seeded runs render byte-identical traces.
//!
//! [`Tracer`] is the handle threaded through constructors: either
//! disabled (the default — one branch per would-be event, the closure
//! building the event never runs) or recording into a shared
//! `Arc<Trace>`.
//!
//! The trace is an event log, not a second metrics registry: its
//! [`Trace::exposition`] counts events per kind and nothing else. The
//! CL, SL and IV distributions live once, in the serving engine's
//! [`FixedHistogram`](crate::FixedHistogram)s, which a cluster merges
//! across shards without a trace.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use ivdss_catalog::ids::ShardId;
use ivdss_simkernel::time::SimTime;

use crate::event::{EventKind, TraceEvent};

/// An append-only, sim-time-stamped structured event log.
#[derive(Debug, Default)]
pub struct Trace {
    events: Mutex<Vec<TraceEvent>>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one event.
    pub fn emit(&self, event: TraceEvent) {
        self.lock().push(event);
    }

    /// Events emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` if nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A copy of the full event log, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    /// Per-kind event counts (deterministically ordered by kind name).
    #[must_use]
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for event in self.lock().iter() {
            *counts.entry(event.kind.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Renders the whole trace, one line per event in emission order.
    /// This is the byte-identical artifact the golden tests snapshot.
    #[must_use]
    pub fn render(&self) -> String {
        let events = self.lock();
        let mut out = String::with_capacity(events.len() * 64);
        for event in events.iter() {
            event.render_into(&mut out);
        }
        out
    }

    /// Prometheus-style text exposition of the trace: one
    /// `obs_events_total{kind="…"}` counter per event kind. The latency
    /// and IV distributions are the metrics registry's histograms, so
    /// the trace adds only what the registry cannot count.
    #[must_use]
    pub fn exposition(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (kind, count) in self.counts() {
            let _ = writeln!(out, "obs_events_total{{kind=\"{kind}\"}} {count}");
        }
        out
    }

    fn lock(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        // Poisoning can only follow a panic while pushing/cloning,
        // which already aborts the run being observed.
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The emission handle instrumented code holds: disabled (free) or
/// recording into a shared [`Trace`], optionally stamping every emitted
/// event with the shard it came from.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    trace: Option<Arc<Trace>>,
    shard: Option<ShardId>,
}

impl Tracer {
    /// A tracer that drops everything without constructing it.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            trace: None,
            shard: None,
        }
    }

    /// A tracer recording into `trace`.
    #[must_use]
    pub fn recording(trace: Arc<Trace>) -> Self {
        Tracer {
            trace: Some(trace),
            shard: None,
        }
    }

    /// This tracer, re-scoped to stamp every emitted event with `shard`.
    /// A cluster hands each per-shard engine `tracer.for_shard(id)` over
    /// one shared trace: the interleaved log stays in emission order
    /// while every line says which engine produced it.
    #[must_use]
    pub fn for_shard(&self, shard: ShardId) -> Self {
        Tracer {
            trace: self.trace.clone(),
            shard: Some(shard),
        }
    }

    /// The shard this tracer stamps, if scoped via
    /// [`Tracer::for_shard`].
    #[must_use]
    pub fn shard(&self) -> Option<ShardId> {
        self.shard
    }

    /// `true` if events will actually be recorded. Instrumentation
    /// with non-trivial setup (e.g. collecting candidate lists) should
    /// guard on this.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The shared trace, if recording.
    #[must_use]
    pub fn trace(&self) -> Option<&Arc<Trace>> {
        self.trace.as_ref()
    }

    /// Emits the event built by `build`, stamped `at` — or does
    /// nothing (without running `build`) when disabled.
    pub fn emit_with(&self, at: SimTime, build: impl FnOnce() -> EventKind) {
        if let Some(trace) = &self.trace {
            trace.emit(TraceEvent {
                at,
                shard: self.shard,
                kind: build(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_costmodel::query::QueryId;
    use ivdss_simkernel::time::SimDuration;

    fn completed() -> EventKind {
        EventKind::Completed {
            query: QueryId::new(1),
            waited: SimDuration::ZERO,
            release: SimTime::ZERO,
            service_start: SimTime::ZERO,
            finish: SimTime::new(2.0),
            cl: SimDuration::new(2.0),
            sl: SimDuration::new(30.0),
            planned_iv: 0.5,
            delivered_iv: 0.5,
            iv_lost: 0.0,
            replanned: false,
        }
    }

    #[test]
    fn disabled_tracer_skips_the_closure() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.emit_with(SimTime::ZERO, || panic!("must not be built"));
    }

    #[test]
    fn recording_tracer_appends_in_order() {
        let trace = Arc::new(Trace::new());
        let tracer = Tracer::recording(Arc::clone(&trace));
        assert!(tracer.enabled());
        tracer.emit_with(SimTime::new(1.0), || EventKind::CacheInvalidated {
            evicted: 1,
        });
        tracer.emit_with(SimTime::new(2.0), completed);
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, SimTime::new(1.0));
        assert_eq!(trace.counts()["completed"], 1);
        assert!(!trace.is_empty());
        assert_eq!(
            trace.exposition(),
            "obs_events_total{kind=\"cache_invalidated\"} 1\n\
             obs_events_total{kind=\"completed\"} 1\n"
        );
    }

    #[test]
    fn shard_scoped_tracer_stamps_events() {
        let trace = Arc::new(Trace::new());
        let root = Tracer::recording(Arc::clone(&trace));
        assert_eq!(root.shard(), None);
        let shard1 = root.for_shard(ShardId::new(1));
        assert_eq!(shard1.shard(), Some(ShardId::new(1)));
        root.emit_with(SimTime::ZERO, || EventKind::CacheInvalidated { evicted: 1 });
        shard1.emit_with(SimTime::new(1.0), || EventKind::CacheInvalidated {
            evicted: 2,
        });
        let events = trace.events();
        assert_eq!(events[0].shard, None);
        assert_eq!(events[1].shard, Some(ShardId::new(1)));
        assert!(trace
            .render()
            .contains("cache_invalidated shard=1 evicted=2"));
    }
}
