//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. the §3.1 pruning bound (scatter-gather vs exhaustive search);
//! 2. the GA workload scheduler vs FIFO / greedy / exhaustive;
//! 3. stylized vs analytic cost model (does the plan choice change?);
//! 4. the §3.3 aging policy (waiting-time tail vs total IV).

use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_catalog::Catalog;
use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
use ivdss_core::planner::{IvqpPlanner, Planner};
use ivdss_core::search::{exhaustive_search, ScatterGatherSearch};
use ivdss_core::starvation::AgingPolicy;
use ivdss_core::value::{BusinessValue, DiscountRates};
use ivdss_costmodel::model::{AnalyticCostModel, CostModel, StylizedCostModel};
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_dsim::simulator::{run_prioritized, Environment};
use ivdss_mqo::evaluate::WorkloadEvaluator;
use ivdss_mqo::scheduler::{
    ExhaustiveScheduler, FifoScheduler, GreedyScheduler, MqoScheduler, WorkloadScheduler,
};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::time::SimTime;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

fn fixture(tables: usize, replicated: usize) -> (Catalog, SyncTimelines) {
    let base = synthetic_catalog(&SyntheticConfig {
        tables,
        sites: 3,
        replicated_tables: 0,
        seed: 77,
        ..SyntheticConfig::default()
    })
    .expect("valid synthetic configuration");
    let mut plan = ReplicationPlan::new();
    for i in 0..replicated {
        plan.add(t(i as u32), ReplicaSpec::new(2.0 + 1.7 * i as f64));
    }
    let catalog = base.with_replication(plan).expect("valid replication plan");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    (catalog, timelines)
}

fn ablate_pruning() {
    println!("== Ablation 1 — the §3.1 pruning bound ==");
    println!("(oracle: 128 synchronization points with no boundary)");
    println!(
        "{:<12} {:>16} {:>16} {:>10}",
        "replicas", "bounded plans", "exhaustive plans", "saved %"
    );
    let model = StylizedCostModel::paper_fig4();
    for replicated in [2usize, 4, 6, 8, 10] {
        let (catalog, timelines) = fixture(replicated + 2, replicated);
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let request = QueryRequest::new(
            QuerySpec::new(
                QueryId::new(0),
                (0..(replicated + 2) as u32).map(t).collect(),
            ),
            SimTime::new(11.0),
        );
        let sg = ScatterGatherSearch::new()
            .search_from(&ctx, &request, request.submitted_at)
            .expect("search succeeds");
        let ex = exhaustive_search(&ctx, &request, 128).expect("oracle succeeds");
        assert!(
            (sg.best.information_value.value() - ex.best.information_value.value()).abs() < 1e-12,
            "bound must not lose the optimum"
        );
        println!(
            "{:<12} {:>16} {:>16} {:>9.1}%",
            replicated,
            sg.plans_explored,
            ex.plans_explored,
            100.0 * (1.0 - sg.plans_explored as f64 / ex.plans_explored as f64)
        );
    }
    println!();
}

fn ablate_schedulers() {
    println!("== Ablation 2 — workload schedulers (6 conflicting queries) ==");
    let (catalog, timelines) = fixture(8, 6);
    let model = StylizedCostModel::paper_fig4();
    let rates = DiscountRates::new(0.15, 0.15);
    let requests: Vec<QueryRequest> = (0..6)
        .map(|i| {
            QueryRequest::new(
                QuerySpec::new(
                    QueryId::new(i as u64),
                    vec![t((i % 3) as u32), t(((i + 1) % 3) as u32)],
                ),
                SimTime::new(10.0 + 0.2 * i as f64),
            )
            .with_business_value(BusinessValue::new(1.0 + (i % 3) as f64 * 0.5))
        })
        .collect();
    let evaluator = WorkloadEvaluator::new(&catalog, &timelines, &model, rates, &requests);
    println!(
        "{:<14} {:>12} {:>14}",
        "scheduler", "total IV", "vs optimal %"
    );
    let optimal = ExhaustiveScheduler::default()
        .schedule(&evaluator)
        .expect("exhaustive feasible")
        .total_information_value;
    for scheduler in [
        &MqoScheduler::new() as &dyn WorkloadScheduler,
        &FifoScheduler::new(),
        &GreedyScheduler::new(),
        &ExhaustiveScheduler::default(),
    ] {
        let outcome = scheduler.schedule(&evaluator).expect("schedulable");
        println!(
            "{:<14} {:>12.4} {:>13.1}%",
            scheduler.name(),
            outcome.total_information_value,
            100.0 * outcome.total_information_value / optimal
        );
    }
    println!();
}

fn ablate_cost_model() {
    println!("== Ablation 3 — stylized vs analytic cost model ==");
    let (catalog, timelines) = fixture(6, 4);
    let rates = DiscountRates::new(0.05, 0.05);
    let request = QueryRequest::new(
        QuerySpec::new(QueryId::new(0), (0..6).map(t).collect()),
        SimTime::new(11.0),
    );
    println!(
        "{:<12} {:>14} {:>10} {:>8} {:>8}",
        "model", "local tables", "IV", "CL", "SL"
    );
    let models: [(&str, &dyn CostModel); 2] = [
        ("stylized", &StylizedCostModel::paper_fig4()),
        ("analytic", &AnalyticCostModel::paper_scale()),
    ];
    for (name, model) in models {
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model,
            rates,
            queues: &NoQueues,
        };
        let plan = IvqpPlanner::new()
            .select_plan(&ctx, &request)
            .expect("plannable");
        println!(
            "{:<12} {:>14} {:>10.4} {:>8.2} {:>8.2}",
            name,
            plan.local_tables.len(),
            plan.information_value.value(),
            plan.latencies.computational.value(),
            plan.latencies.synchronization.value()
        );
    }
    println!("(the *shape* of the decision — prefer replicas, weigh delay —");
    println!(" is model-independent; the split point moves with calibration)");
    println!();
}

fn ablate_aging() {
    println!("== Ablation 4 — §3.3 aging under overload (60 queries) ==");
    let (catalog, timelines) = fixture(12, 12);
    let model = StylizedCostModel::paper_fig4();
    let rates = DiscountRates::new(0.02, 0.02);
    let env = Environment {
        catalog: &catalog,
        timelines: &timelines,
        model: &model,
        rates,
        loading: None,
    };
    let requests: Vec<QueryRequest> = (0..60)
        .map(|i| {
            let bv = if i % 4 == 0 { 0.2 } else { 1.0 };
            QueryRequest::new(
                QuerySpec::new(QueryId::new(i as u64), vec![t((i % 12) as u32)]),
                SimTime::new(1.0 + 0.8 * i as f64),
            )
            .with_business_value(BusinessValue::new(bv))
        })
        .collect();
    println!(
        "{:<22} {:>10} {:>10} {:>10}",
        "policy", "mean wait", "max wait", "total IV"
    );
    for (label, aging) in [
        ("no aging", AgingPolicy::DISABLED),
        ("outpacing(+0.05)", AgingPolicy::outpacing(rates, 0.05)),
    ] {
        let metrics =
            run_prioritized(&env, &IvqpPlanner::new(), &requests, aging).expect("run completes");
        let waits = metrics.waiting_stats();
        println!(
            "{:<22} {:>10.2} {:>10.2} {:>10.3}",
            label,
            waits.mean(),
            waits.max().unwrap_or(0.0),
            metrics.total_information_value()
        );
    }
}

fn main() {
    ablate_pruning();
    ablate_schedulers();
    ablate_cost_model();
    ablate_aging();
}
