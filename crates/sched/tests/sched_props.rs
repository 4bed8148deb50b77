//! Property suite for the scheduling layer.
//!
//! Four laws, randomized over costs, budgets, allocations and genome
//! orders:
//!
//! 1. **Budget safety** — neither greedy nor any decoded genome ever
//!    spends more than the budget.
//! 2. **Emission validity** — every emitted `SyncTimelines` delivers
//!    exactly the allocated refresh count in `(0, horizon]`, with
//!    strictly increasing completion times and a
//!    `last_completion_at`/`next_completion_after` view consistent with
//!    the materialized trace.
//! 3. **Presentation-order freedom** — greedy's outcome is a pure
//!    function of the candidate *set*: shuffling the table order
//!    changes nothing.
//! 4. **Round-trip stability** — decoding, encoding and re-decoding a
//!    genome is a fixed point: `decode(encode(decode(p))) == decode(p)`.

mod util;

use ivdss_catalog::ids::TableId;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_ga::Permutation;
use ivdss_obs::Tracer;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_sched::{
    greedy_schedule, RefreshCosts, ScheduleAllocation, ScheduleEvaluator, UpgradePool,
};
use ivdss_simkernel::rng::{Stream, UniformStream};
use ivdss_simkernel::time::SimTime;
use proptest::prelude::*;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

/// A seeded Fisher–Yates shuffle (proptest supplies the seed; the
/// shuffle itself rides the workspace's deterministic streams).
fn shuffled(len: usize, seed: u64) -> Permutation {
    let mut items: Vec<usize> = (0..len).collect();
    let mut draws = UniformStream::new(0.0, 1.0, seed);
    for i in (1..items.len()).rev() {
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let j = (draws.next_sample() * (i + 1) as f64) as usize;
        items.swap(i, j.min(i));
    }
    Permutation::new(items).expect("shuffle yields a valid permutation")
}

fn costs_from(raw: &[f64]) -> (Vec<TableId>, RefreshCosts) {
    let tables: Vec<TableId> = (0..raw.len() as u32).map(t).collect();
    let mut costs = RefreshCosts::uniform(&tables);
    for (&table, &c) in tables.iter().zip(raw) {
        costs.insert(table, c);
    }
    (tables, costs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Law 2: the mid-phase periodic grid delivers *exactly* the
    /// allocated count, strictly increasing, for arbitrary counts and
    /// awkward horizons — and the schedule's point queries agree with
    /// its materialized trace.
    #[test]
    fn emitted_timelines_are_valid(
        counts in prop::collection::vec(0usize..40, 1..4),
        horizon in 7.0..120.0f64,
    ) {
        let tables: Vec<TableId> = (0..counts.len() as u32).map(t).collect();
        let horizon = SimTime::new(horizon);
        let mut alloc = ScheduleAllocation::empty(&tables, horizon);
        for (&table, &n) in tables.iter().zip(&counts) {
            for _ in 0..n {
                alloc.add(table);
            }
        }
        let timelines: SyncTimelines = alloc.to_timelines();
        for (&table, &n) in tables.iter().zip(&counts) {
            let schedule = timelines.schedule(table).expect("table emitted");
            let completions = schedule.completions_in(SimTime::ZERO, horizon);
            prop_assert_eq!(
                completions.len(), n,
                "table {:?}: allocated {} refreshes, emitted {}",
                table, n, completions.len()
            );
            prop_assert_eq!(schedule.count_in(SimTime::ZERO, horizon), n);
            for pair in completions.windows(2) {
                prop_assert!(pair[0] < pair[1], "completions must strictly increase");
            }
            // Point queries agree with the trace: each completion is its
            // own last-completion, and `next_completion_after` walks the
            // same sequence.
            let mut prev = SimTime::ZERO;
            for &c in &completions {
                prop_assert_eq!(schedule.last_completion_at(c), Some(c));
                prop_assert_eq!(schedule.next_completion_after(prev), Some(c));
                prev = c;
            }
            if let Some(&last) = completions.last() {
                prop_assert_eq!(schedule.last_completion_at(horizon), Some(last));
            }
        }
    }

    /// Law 1 (genome half): any chromosome order decodes to an
    /// allocation within budget, and Law 4: decode∘encode is a fixed
    /// point on decoded allocations.
    #[test]
    fn decoded_genomes_respect_budget_and_round_trip(
        raw_costs in prop::collection::vec(0.4..3.0f64, 2..4),
        budget in 3.1..14.0f64,
        shuffle_seed in 0u64..1_000_000,
    ) {
        let (tables, costs) = costs_from(&raw_costs);
        let horizon = SimTime::new(40.0);
        let pool = UpgradePool::new(&tables, horizon, &costs, budget, &[]);
        // Budget exceeds the dearest cost, so every table affords ≥ 1 item.
        prop_assert!(!pool.is_empty());

        let perm = shuffled(pool.len(), shuffle_seed);
        let alloc = pool.decode(&perm);
        prop_assert!(
            alloc.spend(&costs) <= budget + 1e-9,
            "decoded allocation spends {} over budget {}",
            alloc.spend(&costs), budget
        );

        let encoded = pool.encode(&alloc).expect("decoded allocations encode");
        let again = pool.decode(&encoded);
        prop_assert_eq!(alloc, again, "decode ∘ encode must be a fixed point");
    }

    /// Laws 1 and 3 (greedy half): greedy never overspends, and its
    /// outcome is identical under any presentation order of the
    /// candidate tables.
    #[test]
    fn greedy_is_budget_safe_and_presentation_order_free(
        scenario_seed in 0u64..40,
        budget in 0.0..10.0f64,
        shuffle_seed in 0u64..1_000_000,
    ) {
        let (catalog, fixed, requests, costs) = util::scenario(scenario_seed);
        let model = StylizedCostModel::paper_fig4();
        let evaluator = ScheduleEvaluator::new(&catalog, &model, util::rates(), &requests);
        let tables: Vec<TableId> = fixed.iter().map(|(table, _)| table).collect();

        let out = greedy_schedule(
            &evaluator, &costs, budget, &tables, util::horizon(), &Tracer::disabled(),
        );
        prop_assert!(
            out.budget_used <= budget + 1e-9,
            "greedy spent {} over budget {}", out.budget_used, budget
        );
        prop_assert!((out.budget_used - out.allocation.spend(&costs)).abs() < 1e-9);

        let order = shuffled(tables.len(), shuffle_seed);
        let reordered: Vec<TableId> = order.iter().map(|i| tables[i]).collect();
        let shuffled_out = greedy_schedule(
            &evaluator, &costs, budget, &reordered, util::horizon(), &Tracer::disabled(),
        );
        prop_assert_eq!(
            out, shuffled_out,
            "greedy must be a pure function of the candidate set"
        );
    }
}
