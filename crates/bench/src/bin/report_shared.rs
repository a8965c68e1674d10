//! Measure shared-registry maintenance (`PlanRegistry::delete_sources` —
//! one delta push fanned out to every registered query) against `N`
//! independently maintained one-query registries and emit
//! `BENCH_shared.json`.
//!
//! ```text
//! cargo run --release -p dap-bench --bin report_shared
//! ```
//!
//! The workload is [`shared_query_family`]: one heavy PJ core
//! (`Π_{user,file}(UserGroup ⋈ GroupFile)`) plus `N-1` per-user
//! subscription filters over it, asked the serving-loop question: after
//! **each** of a stream of source deletions, what changed in every
//! standing query's view?
//!
//! * the **shared** path registers all `N` queries in one
//!   `PlanRegistry<WitnessesAnn>` — the core's scans, join, and project
//!   are hash-consed into single nodes, so each deletion's delta is
//!   computed once and fanned out;
//! * the **independent** baseline pushes the same deletion through `N`
//!   separate one-query `PlanRegistry<WitnessesAnn>`s, re-doing the core
//!   work `N` times.
//!
//! Before timing, every measured row's configuration is driven through
//! the full deletion stream with **identical per-query `ViewDelta`s
//! asserted at every step** (this correctness gate is always on —
//! `DAP_BENCH_NO_ASSERT` only disables the wall-clock acceptance bars, so
//! the speedup numbers can't silently go wrong). The acceptance bar is a
//! ≥4× speedup at N=16 overlapping queries.
//!
//! Both stacks run on the sequential pool, so the bench isolates the
//! *sharing* win from build sharding, and a one-thread registry takes the
//! exact sequential code paths.

use dap_bench::{maintenance_deletion_sequence, shared_query_family, speedup_ratio, SpeedupRow};
use dap_provenance::WitnessesAnn;
use dap_relalg::{Database, ParPool, PlanRegistry, Query, Tid};
use std::time::{Duration, Instant};

/// `(users, groups, files)`: the core view has `users · files` tuples,
/// each with `groups` witnesses.
const SHAPE: (usize, usize, usize) = (32, 6, 32);
/// Registered-query counts measured (the acceptance bar reads N=16).
const NS: [usize; 2] = [4, 16];
/// Length of the deletion stream at every N.
const DELETIONS: usize = 16;
const RUNS: usize = 9;

/// Median over `runs` samples with per-run setup excluded from the timer.
fn median_with_setup<S, F: FnMut() -> S, G: FnMut(S)>(
    runs: usize,
    mut setup: F,
    mut timed: G,
) -> Duration {
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let state = setup();
            let start = Instant::now();
            timed(state);
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// A sequential-pool registry serving `queries`.
fn registry_of(db: &Database, queries: &[Query]) -> PlanRegistry<WitnessesAnn> {
    let mut reg = PlanRegistry::<WitnessesAnn>::with_pool(db, ParPool::sequential());
    for q in queries {
        reg.register(q).expect("family queries register");
    }
    reg
}

/// Drive one family through the whole stream on both stacks, asserting
/// identical per-query deltas after every deletion. Returns the shared
/// DAG's node count.
fn assert_identical_deltas(queries: &[Query], db: &Database, seq: &[Tid]) -> usize {
    let mut reg = registry_of(db, queries);
    let mut singles: Vec<PlanRegistry<WitnessesAnn>> = queries
        .iter()
        .map(|q| registry_of(db, std::slice::from_ref(q)))
        .collect();
    let shared_nodes = reg.node_count();
    for tid in seq {
        let deltas = reg.delete_sources(std::slice::from_ref(tid));
        assert_eq!(
            deltas.len(),
            singles.len(),
            "one delta per registered query"
        );
        // `delete_sources` reports in registration order.
        for ((id, shared), single) in deltas.iter().zip(singles.iter_mut()) {
            let independent = single.delete_sources(std::slice::from_ref(tid)).remove(0).1;
            assert_eq!(
                shared.removed, independent.removed,
                "removed rows diverged for {id} at {tid}"
            );
            assert_eq!(
                shared.changed, independent.changed,
                "changed rows diverged for {id} at {tid}"
            );
        }
    }
    shared_nodes
}

fn main() {
    println!("==============================================================");
    println!(" shared_registry — one shared DAG vs N one-query registries");
    println!("==============================================================\n");
    let (users, groups, files) = SHAPE;
    println!(
        "core view: {} tuples x {} witnesses; stream: {} deletions\n",
        users * files,
        groups,
        DELETIONS
    );
    println!(
        "{:>8} {:>8} {:>16} {:>16} {:>10}",
        "queries", "nodes", "independent", "shared", "speedup"
    );

    let mut rows: Vec<SpeedupRow> = Vec::new();
    for n in NS {
        let (db, queries) = shared_query_family(n, users, groups, files);
        let seq = maintenance_deletion_sequence(&db, DELETIONS);
        assert_eq!(seq.len(), DELETIONS, "database large enough for the stream");

        // Correctness first: identical per-query deltas at every step of
        // this measured row. Never disabled.
        let shared_nodes = assert_identical_deltas(&queries, &db, &seq);

        // Shared: one registry serving all n queries, cloned per run so
        // every sample starts from the undeleted state.
        let base_reg = registry_of(&db, &queries);
        let fast = median_with_setup(
            RUNS,
            || base_reg.clone(),
            |mut reg| {
                for tid in &seq {
                    std::hint::black_box(reg.delete_sources(std::slice::from_ref(tid)));
                }
            },
        );

        // Independent: n one-query registries, each fed the stream.
        let base_singles: Vec<PlanRegistry<WitnessesAnn>> = queries
            .iter()
            .map(|q| registry_of(&db, std::slice::from_ref(q)))
            .collect();
        let slow = median_with_setup(
            RUNS,
            || base_singles.clone(),
            |mut singles| {
                for tid in &seq {
                    for single in &mut singles {
                        std::hint::black_box(single.delete_sources(std::slice::from_ref(tid)));
                    }
                }
            },
        );

        let speedup = speedup_ratio(slow, fast);
        println!(
            "{:>8} {:>8} {:>16?} {:>16?} {:>9.1}x",
            n, shared_nodes, slow, fast, speedup
        );
        rows.push((n, DELETIONS, slow, fast, speedup));
    }

    let n16 = rows.last().expect("non-empty").4;
    let mut json = String::from("{\n  \"bench\": \"shared_registry\",\n  \"rows\": [\n");
    for (i, (n, dels, slow, fast, speedup)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"queries\": {n}, \"deletions\": {dels}, \"independent_ns\": {}, \
             \"shared_ns\": {}, \"speedup\": {speedup:.2}}}{}\n",
            slow.as_nanos(),
            fast.as_nanos(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!("  ],\n  \"n16_speedup\": {n16:.2}\n}}\n"));
    std::fs::write("BENCH_shared.json", &json).expect("write BENCH_shared.json");
    println!("\nwrote BENCH_shared.json");

    if std::env::var_os("DAP_BENCH_NO_ASSERT").is_none() {
        assert!(
            n16 >= 4.0,
            "shared registry must be >=4x faster than 16 independent \
             registries (measured {n16:.1}x)"
        );
    }
    println!("acceptance: {n16:.1}x at N=16 (bar: 4x)");
}
