//! **view_maintenance** — the materialized pipeline's per-deletion deltas
//! against full re-evaluation of the annotated view.
//!
//! The serving-loop question: after each of a stream of source deletions,
//! what is the current why-provenance view? The maintained side pushes the
//! stream through one `PlanRegistry<WitnessesAnn>` holding the query
//! (`delete_sources`, `O(affected)` per deletion); the baseline re-packs
//! `S \ T` and runs `eval_annotated` per deletion — the only answer the
//! one-shot engine has. The `report_maintenance` binary measures the same
//! shape, asserts view equality at every step, and enforces the ≥10×
//! acceptance bar; this bench tracks the trend under Criterion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dap_bench::{maintenance_deletion_sequence, pj_multiwitness_workload};
use dap_provenance::WitnessesAnn;
use dap_relalg::{eval_annotated, PlanRegistry, Tid};
use std::collections::BTreeSet;
use std::hint::black_box;

/// `(users, groups, files)` triples: `users · files` view tuples, `groups`
/// witnesses per tuple.
const SIZES: [(usize, usize, usize); 3] = [(8, 4, 8), (16, 5, 16), (32, 6, 32)];
const DELETIONS: usize = 16;

fn bench_maintained(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_maintenance/maintained");
    group.sample_size(10);
    for (users, groups, files) in SIZES {
        let w = pj_multiwitness_workload(users, groups, files);
        let seq = maintenance_deletion_sequence(&w.db, DELETIONS);
        let mut base = PlanRegistry::<WitnessesAnn>::new(&w.db);
        base.register(&w.query).expect("registers");
        group.bench_function(
            BenchmarkId::from_parameter(format!("view={}", users * files)),
            |b| {
                b.iter(|| {
                    let mut reg = base.clone();
                    for tid in &seq {
                        black_box(reg.delete_sources(std::slice::from_ref(tid)));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_full_reeval(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_maintenance/full_reeval");
    group.sample_size(10);
    for (users, groups, files) in SIZES {
        let w = pj_multiwitness_workload(users, groups, files);
        let seq = maintenance_deletion_sequence(&w.db, DELETIONS);
        group.bench_function(
            BenchmarkId::from_parameter(format!("view={}", users * files)),
            |b| {
                b.iter(|| {
                    let mut deleted: BTreeSet<Tid> = BTreeSet::new();
                    for tid in &seq {
                        deleted.insert(tid.clone());
                        let view =
                            eval_annotated::<WitnessesAnn>(&w.query, &w.db.without(&deleted))
                                .expect("evaluates");
                        black_box(view.len());
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_maintained, bench_full_reeval);
criterion_main!(benches);
