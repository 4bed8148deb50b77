//! The seam between the transport and the engines.
//!
//! [`QueryService`] is the complete surface the TCP server needs. The
//! served engine is a [`Cluster`] (one shard serves what a bare engine
//! would, bit for bit), and the seam is deliberately *thin*: every
//! method forwards straight into the existing dispatch code, so the
//! network path and the in-process path run the identical pipeline.
//! That is the whole determinism argument of the loopback suite: a
//! query stream fed through real sockets and the same stream fed
//! through direct method calls hit the same `submit`/`advance_to`/`drain`
//! entry points in the same order, and must therefore produce
//! bit-identical reports.

use ivdss_cluster::{Cluster, ClusterReport};
use ivdss_core::plan::{PlanError, QueryRequest};
use ivdss_costmodel::query::QueryId;
use ivdss_serve::clock::Clock;
use ivdss_serve::engine::Completion;
use ivdss_simkernel::time::SimTime;

use crate::proto::{CompletionMsg, ReportMsg, RouteMsg, ShedMsg};

/// Everything the network front door asks of an engine. Object-safe so
/// the server can hold `&mut dyn QueryService` whichever [`Clock`]
/// drives the engine, or a stand-in in tests. `Send` because each
/// connection's thread executes its own requests, taking the engine
/// under the server's lock.
pub trait QueryService: Send {
    /// The engine's current time.
    fn now(&self) -> SimTime;

    /// Submits one query through the ordinary serving pipeline.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning dispatched queries.
    fn submit(&mut self, request: QueryRequest) -> Result<ReportMsg, PlanError>;

    /// Advances the engine's clock (a no-op on wall clocks) and pumps
    /// dispatch.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning dispatched queries.
    fn advance_to(&mut self, to: SimTime) -> Result<ReportMsg, PlanError>;

    /// Force-dispatches everything still queued.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning dispatched queries.
    fn drain(&mut self) -> Result<ReportMsg, PlanError>;

    /// The Prometheus-style metrics exposition.
    fn exposition(&self) -> String;

    /// The rendered plan-decision audit of `query`, if retained.
    fn audit(&self, query: QueryId) -> Option<String>;
}

fn completion_msg(shard: u32, c: &Completion) -> CompletionMsg {
    CompletionMsg {
        query: c.query.raw(),
        shard,
        delivered_iv: c.evaluation.information_value.value(),
        cl: c.evaluation.latencies.computational.value(),
        sl: c.evaluation.latencies.synchronization.value(),
        waited: c.waited.value(),
        finish: c.evaluation.finish.value(),
        iv_lost: c.iv_lost,
        replanned: c.replanned,
    }
}

fn report_from_cluster(report: ClusterReport) -> ReportMsg {
    ReportMsg {
        routed: report.routed.map(|d| RouteMsg {
            shard: d.shard.raw(),
            covered: d.covered as u32,
            missing: d.missing.len() as u32,
        }),
        shed: report
            .shed
            .into_iter()
            .map(|(shard, q)| ShedMsg {
                shard: shard.map(|s| s.raw()),
                query: q.raw(),
            })
            .collect(),
        completions: report
            .completed
            .iter()
            .map(|(shard, c)| completion_msg(shard.raw(), c))
            .collect(),
    }
}

impl<C: Clock + Clone + Send> QueryService for Cluster<'_, C> {
    fn now(&self) -> SimTime {
        Cluster::now(self)
    }

    fn submit(&mut self, request: QueryRequest) -> Result<ReportMsg, PlanError> {
        Cluster::submit(self, request).map(report_from_cluster)
    }

    fn advance_to(&mut self, to: SimTime) -> Result<ReportMsg, PlanError> {
        Cluster::advance_to(self, to).map(report_from_cluster)
    }

    fn drain(&mut self) -> Result<ReportMsg, PlanError> {
        Cluster::drain(self).map(report_from_cluster)
    }

    fn exposition(&self) -> String {
        Cluster::exposition(self)
    }

    fn audit(&self, query: QueryId) -> Option<String> {
        // The audit lives on whichever shard dispatched the query; the
        // newest decision wins if several shards saw it (failover).
        self.engines()
            .iter()
            .rev()
            .find_map(|e| e.plan_audit(query).map(|a| a.render()))
    }
}
