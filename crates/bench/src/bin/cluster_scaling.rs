//! Cluster scaling bench: the sharded front door across 1/2/4/8 shards,
//! emitting machine-readable JSON (`BENCH_cluster.json`).
//!
//! Each shard count serves the *same* seeded open-loop workload (see
//! `ivdss_dsim::experiments::cluster`), so the swept points differ only
//! in sharding: routing coverage narrows as the replicated tables are
//! spread across more owners, and the IV-guarded steal pass moves
//! queued work onto idle shards. Wall-clock per point is the median of
//! `repeats` runs; realized-IV and routing/steal counters are
//! deterministic per seed and asserted identical across repeats.
//!
//! Flags: `--smoke` (scaled-down run), `--out <path>` (default
//! `BENCH_cluster.json` in the current directory).

use std::fmt::Write as _;
use std::time::Instant;

use ivdss_bench::median_ms;
use ivdss_dsim::experiments::cluster::{
    run_cluster_point, ClusterScalingConfig, ClusterScalingPoint, SHARD_COUNTS,
};

struct Cell {
    point: ClusterScalingPoint,
    wall_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster.json".to_owned());

    let config = ClusterScalingConfig {
        queries: if smoke { 60 } else { 200 },
        ..ClusterScalingConfig::default()
    };
    let repeats = if smoke { 2 } else { 5 };

    println!("== cluster_scaling ==");
    println!(
        "{} queries, {} tables ({} replicated), {repeats} repeats{}",
        config.queries,
        config.tables,
        config.replicated_tables,
        if smoke { ", smoke mode" } else { "" }
    );
    println!(
        "{:>7} {:>10} {:>6} {:>8} {:>7} {:>10} {:>6} {:>10}",
        "shards", "wall ms", "full", "partial", "steals", "completed", "shed", "total IV"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for shards in SHARD_COUNTS {
        let mut samples = Vec::with_capacity(repeats);
        let mut point = None;
        for _ in 0..repeats {
            let start = Instant::now();
            let p = run_cluster_point(&config, shards);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
            if let Some(prev) = point {
                assert_eq!(prev, p, "seeded cluster run must be deterministic");
            }
            point = Some(p);
        }
        let point = point.expect("at least one repeat ran");
        let wall_ms = median_ms(&mut samples);
        println!(
            "{shards:>7} {wall_ms:>10.3} {:>6} {:>8} {:>7} {:>10} {:>6} {:>10.2}",
            point.routed_full,
            point.routed_partial,
            point.steals,
            point.completed,
            point.shed,
            point.total_iv
        );
        cells.push(Cell { point, wall_ms });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"cluster_scaling\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"queries\": {},", config.queries);
    let _ = writeln!(json, "  \"tables\": {},", config.tables);
    let _ = writeln!(json, "  \"replicated\": {},", config.replicated_tables);
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    let _ = writeln!(json, "  \"seed\": {},", config.seed);
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let p = &c.point;
        let _ = writeln!(
            json,
            "    {{\"shards\": {}, \"wall_ms\": {:.4}, \"routed_full\": {}, \
             \"routed_partial\": {}, \"steals\": {}, \"steal_iv_gain\": {:.6}, \
             \"completed\": {}, \"shed\": {}, \"total_iv\": {:.6}}}{}",
            p.shards,
            c.wall_ms,
            p.routed_full,
            p.routed_partial,
            p.steals,
            p.steal_iv_gain,
            p.completed,
            p.shed,
            p.total_iv,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"note\": \"same seeded workload at every shard count; coverage narrows and the \
         IV-guarded steal pass engages as shards multiply (see EXPERIMENTS.md)\"\n",
    );
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write bench JSON");
    println!("wrote {out}");

    for c in &cells {
        assert_eq!(
            c.point.completed + c.point.shed,
            config.queries as u64,
            "{} shards: completions + shed must cover every submission",
            c.point.shards
        );
        assert!(c.point.total_iv > 0.0);
    }
    let multi_steals: u64 = cells
        .iter()
        .filter(|c| c.point.shards > 1)
        .map(|c| c.point.steals)
        .sum();
    assert!(
        multi_steals > 0,
        "multi-shard points must exercise work stealing"
    );
}
