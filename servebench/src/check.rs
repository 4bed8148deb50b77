//! Output checks: every offered query is answered exactly once, no
//! frame is answered with an error, and the per-query outcomes match an
//! in-process run of the same stream through [`QueryService`].

use std::time::{Duration, Instant};

use ivdss_core::plan::QueryRequest;
use ivdss_net::proto::{ReportMsg, Response};
use ivdss_net::QueryService;

use crate::workload::World;

/// How one query was answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    /// Delivered, with its evaluation as the engine reported it.
    Completed {
        /// Delivered information value.
        iv: f64,
        /// Computational latency.
        cl: f64,
        /// Synchronization latency.
        sl: f64,
        /// Delivery time.
        finish: f64,
    },
    /// Dropped by admission control (an answer, not a failure).
    Shed,
}

impl Answer {
    /// Delivered IV, zero for a shed query.
    pub fn iv(self) -> f64 {
        match self {
            Answer::Completed { iv, .. } => iv,
            Answer::Shed => 0.0,
        }
    }
}

/// Per-query answers of one run, indexed by query id (the generator
/// issues ids `0..queries`).
pub struct Ledger {
    answers: Vec<Option<Answer>>,
    /// Query ids answered twice or unknown to the stream.
    pub stray: u64,
    /// Queries whose frame was answered with an error or not at all.
    pub errored: u64,
}

impl Ledger {
    /// An empty ledger for `queries` offered queries.
    pub fn new(queries: usize) -> Ledger {
        Ledger {
            answers: vec![None; queries],
            stray: 0,
            errored: 0,
        }
    }

    fn answer(&mut self, id: u64, answer: Answer) {
        match usize::try_from(id)
            .ok()
            .and_then(|i| self.answers.get_mut(i))
        {
            Some(slot @ None) => *slot = Some(answer),
            _ => self.stray += 1,
        }
    }

    /// Records every completion and shed of one report.
    pub fn record(&mut self, report: &ReportMsg) {
        for c in &report.completions {
            self.answer(
                c.query,
                Answer::Completed {
                    iv: c.delivered_iv,
                    cl: c.cl,
                    sl: c.sl,
                    finish: c.finish,
                },
            );
        }
        for s in &report.shed {
            self.answer(s.query, Answer::Shed);
        }
    }

    /// Records one answer frame carrying `queries` submissions (zero
    /// for the drain frame); an error frame fails all of them.
    pub fn record_frame(&mut self, response: &Response, queries: usize) {
        match response {
            Response::Report(report) => self.record(report),
            _ => self.errored += queries.max(1) as u64,
        }
    }

    /// The answer of query `id`, if it got one.
    pub fn get(&self, id: usize) -> Option<Answer> {
        self.answers[id]
    }

    /// Offered queries that never got an answer.
    pub fn unanswered(&self) -> u64 {
        self.answers.iter().filter(|a| a.is_none()).count() as u64
    }

    /// Answers in id order.
    pub fn answers(&self) -> impl Iterator<Item = Option<Answer>> + '_ {
        self.answers.iter().copied()
    }

    /// FNV-1a digest of every query's outcome: the bit pattern of its
    /// delivered IV, a distinct marker for a shed, another for no
    /// answer.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (id, answer) in self.answers.iter().enumerate() {
            let word = match answer {
                Some(Answer::Completed { iv, .. }) => iv.to_bits(),
                Some(Answer::Shed) => u64::MAX,
                None => u64::MAX - 1,
            };
            for byte in (id as u64)
                .to_le_bytes()
                .into_iter()
                .chain(word.to_le_bytes())
            {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Queries whose outcome differs from `reference`'s.
    pub fn mismatches(&self, reference: &Ledger) -> u64 {
        self.answers
            .iter()
            .zip(&reference.answers)
            .filter(|(a, b)| match (a, b) {
                (Some(Answer::Completed { iv: x, .. }), Some(Answer::Completed { iv: y, .. })) => {
                    x.to_bits() != y.to_bits()
                }
                _ => a != b,
            })
            .count() as u64
    }
}

/// Serves `requests` in process through [`QueryService::submit`], then
/// drains, and returns the answers with the time spent in the service
/// calls.
///
/// # Errors
///
/// Propagates a plan error as text.
pub fn reference(world: &World, requests: Vec<QueryRequest>) -> Result<(Ledger, Duration), String> {
    let mut ledger = Ledger::new(requests.len());
    world.with_cluster(|cluster| {
        let service: &mut dyn QueryService = cluster;
        let start = Instant::now();
        for request in requests {
            let report = service.submit(request).map_err(|e| e.to_string())?;
            ledger.record(&report);
        }
        let report = service.drain().map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        ledger.record(&report);
        Ok((ledger, elapsed))
    })
}
