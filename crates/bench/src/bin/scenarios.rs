//! Scenario sweeps bench: every named traffic scenario through the
//! serving engine, emitting machine-readable JSON
//! (`BENCH_scenarios.json`).
//!
//! Each registry scenario (see `ivdss_scenarios::named` and
//! `docs/SCENARIOS.md`) replays its seeded event stream — Zipf-skewed
//! popularity, a flash crowd against a small queue, a diurnal
//! multi-tenant SLA mix, schema growth with cold timelines — through
//! `ivdss_dsim::experiments::scenarios`. Wall-clock per scenario is the
//! median of `repeats` runs; every counted/valued headline number is
//! deterministic per seed and asserted identical across repeats.
//!
//! Flags: `--smoke` (quarter-horizon run), `--only NAME` (one
//! scenario), `--out <path>` (default `BENCH_scenarios.json` in the
//! current directory).

use std::fmt::Write as _;
use std::time::Instant;

use ivdss_bench::median_ms;
use ivdss_dsim::experiments::scenarios::{run_scenario, ScenarioPoint};
use ivdss_scenarios::named::all_scenarios;

struct Cell {
    point: ScenarioPoint,
    horizon: f64,
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
        .unwrap_or_else(|| "BENCH_scenarios.json".to_owned());
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let scale = if smoke { 0.25 } else { 1.0 };
    let repeats = if smoke { 2 } else { 5 };
    let specs: Vec<_> = all_scenarios()
        .into_iter()
        .filter(|s| only.as_deref().is_none_or(|name| s.name == name))
        .collect();
    assert!(
        !specs.is_empty(),
        "--only {:?} matches no registry scenario",
        only
    );

    println!("== scenarios ==");
    println!(
        "{} scenarios, horizon scale {scale}, {repeats} repeats{}",
        specs.len(),
        if smoke { ", smoke mode" } else { "" }
    );
    println!(
        "{:<18} {:>10} {:>9} {:>9} {:>6} {:>10} {:>8} {:>8} {:>7}",
        "scenario",
        "wall ms",
        "submitted",
        "completed",
        "shed",
        "total IV",
        "p99 CL",
        "SLA met",
        "births"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for spec in specs {
        let horizon = spec.horizon * scale;
        let spec = spec.with_horizon(horizon);
        let mut samples = Vec::with_capacity(repeats);
        let mut point = None;
        for _ in 0..repeats {
            let start = Instant::now();
            let p = run_scenario(&spec);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
            if let Some(prev) = point {
                assert_eq!(prev, p, "seeded scenario replay must be deterministic");
            }
            point = Some(p);
        }
        let point = point.expect("at least one repeat ran");
        let wall_ms = median_ms(&mut samples);
        let sla = if point.sla_tracked == 0 {
            "-".to_owned()
        } else {
            format!("{}/{}", point.sla_met, point.sla_tracked)
        };
        println!(
            "{:<18} {wall_ms:>10.3} {:>9} {:>9} {:>6} {:>10.2} {:>8.2} {sla:>8} {:>7}",
            point.name,
            point.submitted,
            point.completed,
            point.shed,
            point.total_iv,
            point.p99_cl,
            point.births
        );
        cells.push(Cell {
            point,
            horizon,
            wall_ms,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"scenarios\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"horizon_scale\": {scale},");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let p = &c.point;
        let _ = write!(
            json,
            "    {{\"scenario\": \"{}\", \"seed\": {}, \"horizon\": {}, \"wall_ms\": {:.4}, \
             \"submitted\": {}, \"completed\": {}, \"shed\": {}, \"shed_rate\": {:.6}, \
             \"total_iv\": {:.6}, \"mean_iv\": {:.6}, \"p99_cl\": {:.6}, \
             \"sla_met\": {}, \"sla_tracked\": {}, \"births\": {}, \"tenants\": [",
            p.name,
            p.seed,
            c.horizon,
            c.wall_ms,
            p.submitted,
            p.completed,
            p.shed,
            p.shed_rate,
            p.total_iv,
            p.mean_iv,
            p.p99_cl,
            p.sla_met,
            p.sla_tracked,
            p.births,
        );
        for (j, t) in p.tenants.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"name\": \"{}\", \"offered\": {}, \"completed\": {}, \
                 \"delivered_iv\": {:.6}, \"sla_met\": {}, \"sla_tracked\": {}}}{}",
                t.name,
                t.offered,
                t.completed,
                t.delivered_iv,
                t.sla_met,
                t.sla_tracked,
                if j + 1 == p.tenants.len() { "" } else { ", " }
            );
        }
        let _ = writeln!(json, "]}}{}", if i + 1 == cells.len() { "" } else { "," });
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"note\": \"every headline number is deterministic per scenario seed (asserted \
         across repeats); only wall_ms varies by host. docs/SCENARIOS.md documents each \
         scenario's knobs and reproduce command\"\n",
    );
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write bench JSON");
    println!("wrote {out}");

    for c in &cells {
        let p = &c.point;
        assert_eq!(
            p.completed + p.shed,
            p.submitted,
            "{}: completions + shed must cover every submission",
            p.name
        );
        assert!(p.total_iv > 0.0, "{}: no IV delivered", p.name);
        let offered: u64 = p.tenants.iter().map(|t| t.offered).sum();
        assert_eq!(offered, p.submitted, "{}: tenant ledger leaks", p.name);
        match p.name {
            "flash-crowd" => assert!(p.shed > 0, "the flash crowd must shed under burst"),
            "multi-tenant-sla" => assert!(p.sla_tracked > 0, "SLA mix must track deadlines"),
            "schema-growth" => assert!(p.births > 0, "growth scenario must bear tables"),
            _ => {}
        }
    }
}
