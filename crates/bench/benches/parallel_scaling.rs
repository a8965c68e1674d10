//! **parallel_scaling** — the [`dap_relalg::ParPool`]-sharded hot paths
//! against their sequential counterparts: cold-start registration in a
//! one-query registry and the batched view-deletion dispatcher. The
//! `report_parallel` binary measures the same shape, asserts identical
//! results per row, and applies the ≥3× acceptance bar (on ≥4 hardware
//! threads); this bench tracks the trend under Criterion. A sequential
//! pool runs the identical code path, so the `seq` groups double as the
//! pre-runtime baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dap_bench::pj_multiwitness_workload;
use dap_core::dichotomy::delete_min_view_side_effects_many_with;
use dap_provenance::WitnessesAnn;
use dap_relalg::{eval, ParPool, PlanRegistry, Tuple};
use std::hint::black_box;

/// `(users, groups, files)` triples for registry construction.
const BUILD_SIZES: [(usize, usize, usize); 2] = [(16, 6, 16), (32, 8, 32)];
/// Sizes for the batched solve (16 targets each).
const SOLVE_SIZES: [(usize, usize, usize); 2] = [(8, 4, 8), (16, 6, 16)];

fn bench_registry_build(c: &mut Criterion) {
    for (name, pool) in [("seq", ParPool::sequential()), ("par", ParPool::auto())] {
        let mut group = c.benchmark_group(format!("parallel_scaling/registry_build/{name}"));
        group.sample_size(10);
        for (users, groups, files) in BUILD_SIZES {
            let w = pj_multiwitness_workload(users, groups, files);
            group.bench_function(
                BenchmarkId::from_parameter(format!("pairs={}", users * groups * files)),
                |b| {
                    b.iter(|| {
                        let mut reg = PlanRegistry::<WitnessesAnn>::with_pool(&w.db, pool);
                        let id = reg.register(&w.query).expect("registers");
                        black_box(reg.view_len(id))
                    })
                },
            );
        }
        group.finish();
    }
}

fn bench_solve_many(c: &mut Criterion) {
    for (name, pool) in [("seq", ParPool::sequential()), ("par", ParPool::auto())] {
        let mut group = c.benchmark_group(format!("parallel_scaling/solve_many/{name}"));
        group.sample_size(10);
        for (users, groups, files) in SOLVE_SIZES {
            let w = pj_multiwitness_workload(users, groups, files);
            let view = eval(&w.query, &w.db).expect("evaluates");
            let targets: Vec<Tuple> = view.tuples.iter().take(16).cloned().collect();
            group.bench_function(
                BenchmarkId::from_parameter(format!("view={}", users * files)),
                |b| {
                    b.iter(|| {
                        let sols =
                            delete_min_view_side_effects_many_with(&w.query, &w.db, &targets, pool)
                                .expect("solves");
                        black_box(sols.len())
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_registry_build, bench_solve_many);
criterion_main!(benches);
