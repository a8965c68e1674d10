//! Race the unified 0/1-ILP deletion solver (`dap_core::ilp`) against the
//! routed dichotomy arms on one workload per dichotomy class and emit
//! `BENCH_ilp.json`.
//!
//! ```text
//! cargo run --release -p dap-bench --bin report_ilp
//! ```
//!
//! Every row solves the **same** target on **one** warm context twice:
//! through `DeletionContext::solve` (the arm the query's class routes to:
//! SPU whole support, SJ component scan, chain min-cut for the source
//! objective, exact branch-and-bound / hitting set otherwise) and through
//! the ILP turn for the same objective. Both read the context's cached
//! witness index, so a row times the two solvers and not a provenance
//! build. Each row asserts the optima are **cost-identical** — the
//! correctness contract of the unified solver, checked unconditionally on
//! every run (there is no wall-clock bar to shelter from noisy runners;
//! the timings are reported for the record, the assertion is the point).

use dap_bench::{chain_workload, median_time, pj_multiwitness_workload, sj_workload, spu_workload};
use dap_core::deletion::view_side_effect::ExactOptions;
use dap_core::{Deletion, DeletionContext, IlpOptions, Objective, SolverKind};
use dap_relalg::Tuple;
use std::time::Duration;

const RUNS: usize = 9;

/// One measured comparison: a dichotomy class, the objective solved, the
/// arm `solve` routed to, the instance's support/frontier sizes, both
/// timings, and both optima.
struct Row {
    class: &'static str,
    objective: Objective,
    arm: SolverKind,
    support: usize,
    frontier: usize,
    routed: Duration,
    ilp: Duration,
    cost_routed: usize,
    cost_ilp: usize,
}

fn race(
    class: &'static str,
    ctx: &mut DeletionContext,
    target: &Tuple,
    objective: Objective,
) -> Row {
    let exact = ExactOptions::default();
    let ilp_opts = IlpOptions::default();
    let solve = |ctx: &mut DeletionContext| ctx.solve(target, objective, &exact).expect("solves");
    let ilp = |ctx: &mut DeletionContext| {
        match objective {
            Objective::View => ctx.min_view_side_effects_ilp_turn(target, &ilp_opts),
            Objective::Source => ctx.min_source_deletion_ilp_turn(target, &ilp_opts),
        }
        .expect("solves")
    };
    let cost = |d: &Deletion| match objective {
        Objective::View => d.view_cost(),
        Objective::Source => d.source_cost(),
    };
    let (inst, idx) = ctx.instance_and_index(target).expect("target in view");
    // Warm both paths once (the cached index, page-in, allocator) before
    // timing.
    let (mut routed, mut arm) = solve(ctx);
    let mut ilp_sol = ilp(ctx);
    let routed_t = median_time(RUNS, || (routed, arm) = solve(ctx));
    let ilp_t = median_time(RUNS, || ilp_sol = ilp(ctx));
    let row = Row {
        class,
        objective,
        arm,
        support: inst.support.len(),
        frontier: idx.frontier_len(),
        routed: routed_t,
        ilp: ilp_t,
        cost_routed: cost(&routed),
        cost_ilp: cost(&ilp_sol),
    };
    assert_eq!(
        row.cost_routed, row.cost_ilp,
        "{class}/{objective}: the unified ILP must match the routed optimum"
    );
    row
}

fn main() {
    println!("==============================================================");
    println!(" ilp_unified — routed dichotomy arms vs 0/1-ILP");
    println!("==============================================================\n");
    println!(
        "{:>6} {:>7} {:>12} {:>8} {:>9} {:>14} {:>14} {:>5} {:>5}",
        "class", "obj", "arm", "support", "frontier", "routed", "ilp", "cost", "same"
    );

    let workloads = [
        ("SPU", spu_workload(11, 40)),
        ("SJ", sj_workload(13, 40)),
        ("chain", chain_workload(7, 3, 8)),
        ("PJ", pj_multiwitness_workload(8, 4, 8)),
    ];
    let mut rows: Vec<Row> = Vec::new();
    for (class, w) in &workloads {
        let mut ctx = DeletionContext::new(&w.query, &w.db).expect("builds");
        for objective in [Objective::View, Objective::Source] {
            rows.push(race(class, &mut ctx, &w.target, objective));
        }
    }

    let mut json = String::from("{\n  \"bench\": \"ilp_unified\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:>6} {:>7} {:>12} {:>8} {:>9} {:>14?} {:>14?} {:>5} {:>5}",
            r.class,
            r.objective,
            format!("{:?}", r.arm),
            r.support,
            r.frontier,
            r.routed,
            r.ilp,
            r.cost_routed,
            r.cost_routed == r.cost_ilp,
        );
        json.push_str(&format!(
            "    {{\"class\": \"{}\", \"objective\": \"{}\", \"arm\": \"{:?}\", \
             \"support\": {}, \"frontier\": {}, \"specialized_ns\": {}, \"ilp_ns\": {}, \
             \"cost_specialized\": {}, \"cost_ilp\": {}, \"identical_cost\": {}}}{}\n",
            r.class,
            r.objective,
            r.arm,
            r.support,
            r.frontier,
            r.routed.as_nanos(),
            r.ilp.as_nanos(),
            r.cost_routed,
            r.cost_ilp,
            r.cost_routed == r.cost_ilp,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let all = rows.iter().all(|r| r.cost_routed == r.cost_ilp);
    json.push_str(&format!("  ],\n  \"all_identical_costs\": {all}\n}}\n"));
    std::fs::write("BENCH_ilp.json", &json).expect("write BENCH_ilp.json");
    println!("\nwrote BENCH_ilp.json");
    println!("acceptance: identical optima on all {} rows", rows.len());
}
