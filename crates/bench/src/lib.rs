//! # dap-bench — the paper's report harness
//!
//! Workload generators for the `report_table1`, `report_table2`,
//! `report_table3` and `report_figures` binaries, which regenerate the
//! paper's Tables 1–3 and Figures 1–3 and check each row against its
//! oracle. Each generator produces instances for one row of a dichotomy
//! table:
//!
//! * NP-hard rows are populated with the theorem reductions (monotone 3SAT
//!   and hitting-set instances pushed through `dap-core::reductions`);
//! * polynomial rows are populated with random databases of increasing size
//!   under fixed-class queries (SPU / SJ / SJU / chain joins).
//!
//! [`lineage_baseline`] is the Cui–Widom baseline that `report_table1`
//! times against the witness-hypergraph solver.
//!
//! Server performance, end to end and per layer, is measured by the
//! separate `perfbench/` benchmark, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lineage_baseline;

use dap_provenance::ViewLoc;
use dap_relalg::{eval, schema, Database, Pred, Query, Relation, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A ready-to-solve deletion workload.
#[derive(Clone, Debug)]
pub struct DeletionWorkload {
    /// The database.
    pub db: Database,
    /// The query.
    pub query: Query,
    /// The view tuple to delete.
    pub target: Tuple,
}

/// A ready-to-solve placement workload.
#[derive(Clone, Debug)]
pub struct PlacementWorkload {
    /// The database.
    pub db: Database,
    /// The query.
    pub query: Query,
    /// The view location to annotate.
    pub target: ViewLoc,
}

fn val(rng: &mut StdRng, domain: usize) -> Value {
    Value::str(format!("v{}", rng.gen_range(0..domain)))
}

/// An SPU workload: `Π_A(σ_{B=v0}(R)) ∪ Π_A(S)` over relations with
/// `size` tuples each; the target is a view tuple guaranteed present.
pub fn spu_workload(seed: u64, size: usize) -> DeletionWorkload {
    let mut r = rng(seed);
    let domain = (size / 4).max(4);
    let mk_rows = |r: &mut StdRng| -> Vec<Tuple> {
        (0..size)
            .map(|_| Tuple::new([val(r, domain), val(r, 8)]))
            .collect()
    };
    let mut rows_r = mk_rows(&mut r);
    rows_r.push(Tuple::new([Value::str("hit"), Value::str("v0")]));
    let rows_s: Vec<Tuple> = mk_rows(&mut r);
    let db = Database::from_relations(vec![
        Relation::new("R", schema(["A", "B"]), rows_r).expect("arity"),
        Relation::new("S", schema(["A", "B"]), rows_s).expect("arity"),
    ])
    .expect("names");
    let query = Query::scan("R")
        .select(Pred::attr_eq_const("B", "v0"))
        .project(["A"])
        .union(Query::scan("S").project(["A"]));
    DeletionWorkload {
        db,
        query,
        target: Tuple::new([Value::str("hit")]),
    }
}

/// An SJ workload: `R(A,B) ⋈ S(B,C)` with `size` tuples per relation; the
/// target is the first view tuple.
pub fn sj_workload(seed: u64, size: usize) -> DeletionWorkload {
    let mut r = rng(seed);
    let domain = (size / 3).max(3);
    let rows_r: Vec<Tuple> = (0..size)
        .map(|i| Tuple::new([Value::str(format!("a{i}")), val(&mut r, domain)]))
        .collect();
    let rows_s: Vec<Tuple> = (0..size)
        .map(|i| Tuple::new([val(&mut r, domain), Value::str(format!("c{i}"))]))
        .collect();
    let db = Database::from_relations(vec![
        Relation::new("R", schema(["A", "B"]), rows_r).expect("arity"),
        Relation::new("S", schema(["B", "C"]), rows_s).expect("arity"),
    ])
    .expect("names");
    let query = Query::scan("R").join(Query::scan("S"));
    let target = eval(&query, &db).expect("evaluates").tuples[0].clone();
    DeletionWorkload { db, query, target }
}

/// A chain-join workload: `Π_{A0,Ak}(R1 ⋈ … ⋈ Rk)` with `width` tuples per
/// layer and join values drawn from a small domain so paths multiply.
pub fn chain_workload(seed: u64, layers: usize, width: usize) -> DeletionWorkload {
    assert!(layers >= 2);
    let mut r = rng(seed);
    let domain = (width / 2).max(2);
    let mut rels = Vec::with_capacity(layers);
    for l in 0..layers {
        let a = format!("A{l}");
        let b = format!("A{}", l + 1);
        let rows: Vec<Tuple> = (0..width)
            .map(|_| Tuple::new([val(&mut r, domain), val(&mut r, domain)]))
            .collect();
        rels.push(
            Relation::new(
                format!("R{}", l + 1),
                schema([a.as_str(), b.as_str()]),
                rows,
            )
            .expect("arity"),
        );
    }
    let db = Database::from_relations(rels).expect("names");
    let query = Query::join_all((0..layers).map(|l| Query::scan(format!("R{}", l + 1))))
        .project(["A0".to_string(), format!("A{layers}")]);
    let view = eval(&query, &db).expect("evaluates");
    assert!(
        !view.is_empty(),
        "chain workload produced an empty view; adjust seed"
    );
    let target = view.tuples[0].clone();
    DeletionWorkload { db, query, target }
}

/// An SJU placement workload: a union of two joins over shared relations.
pub fn sju_placement_workload(seed: u64, size: usize) -> PlacementWorkload {
    let mut r = rng(seed);
    let domain = (size / 3).max(3);
    let mk = |r: &mut StdRng, tag: &str| -> Vec<Tuple> {
        (0..size)
            .map(|i| Tuple::new([Value::str(format!("{tag}{i}")), val(r, domain)]))
            .collect()
    };
    let rows_r = mk(&mut r, "a");
    let rows_t = mk(&mut r, "t");
    let rows_s: Vec<Tuple> = (0..size)
        .map(|i| Tuple::new([val(&mut r, domain), Value::str(format!("c{i}"))]))
        .collect();
    let db = Database::from_relations(vec![
        Relation::new("R", schema(["A", "B"]), rows_r).expect("arity"),
        Relation::new("T", schema(["A", "B"]), rows_t).expect("arity"),
        Relation::new("S", schema(["B", "C"]), rows_s).expect("arity"),
    ])
    .expect("names");
    let query = Query::scan("R")
        .join(Query::scan("S"))
        .union(Query::scan("T").join(Query::scan("S")));
    let view = eval(&query, &db).expect("evaluates");
    let target = ViewLoc::new(view.tuples[0].clone(), "A");
    PlacementWorkload { db, query, target }
}

/// An SPU placement workload over a relation of `size` tuples.
pub fn spu_placement_workload(seed: u64, size: usize) -> PlacementWorkload {
    let w = spu_workload(seed, size);
    PlacementWorkload {
        target: ViewLoc::new(w.target.clone(), "A"),
        db: w.db,
        query: w.query,
    }
}

/// A PJ workload in the user/group/file shape with controllable witness
/// multiplicity: `groups` middle values, each user in every group, each file
/// shared by every group — (user, file) pairs then have `groups` witnesses.
pub fn pj_multiwitness_workload(users: usize, groups: usize, files: usize) -> DeletionWorkload {
    let ug: Vec<Tuple> = (0..users)
        .flat_map(|u| {
            (0..groups).map(move |g| {
                Tuple::new([Value::str(format!("u{u}")), Value::str(format!("g{g}"))])
            })
        })
        .collect();
    let gf: Vec<Tuple> = (0..groups)
        .flat_map(|g| {
            (0..files).map(move |f| {
                Tuple::new([Value::str(format!("g{g}")), Value::str(format!("f{f}"))])
            })
        })
        .collect();
    let db = Database::from_relations(vec![
        Relation::new("UserGroup", schema(["user", "grp"]), ug).expect("arity"),
        Relation::new("GroupFile", schema(["grp", "file"]), gf).expect("arity"),
    ])
    .expect("names");
    let query = Query::scan("UserGroup")
        .join(Query::scan("GroupFile"))
        .project(["user", "file"]);
    DeletionWorkload {
        db,
        query,
        target: Tuple::new([Value::str("u0"), Value::str("f0")]),
    }
}

/// Median wall time of `runs` executions of `f`, the timing every
/// `report_*` binary prints.
pub fn median_time<F: FnMut()>(runs: usize, mut f: F) -> Duration {
    assert!(runs >= 1);
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spu_workload_target_is_in_view() {
        let w = spu_workload(1, 50);
        let view = eval(&w.query, &w.db).unwrap();
        assert!(view.contains(&w.target));
        let fp = dap_relalg::OpFootprint::of(&w.query);
        assert!(!fp.join && !fp.rename);
    }

    #[test]
    fn sj_workload_target_is_in_view() {
        let w = sj_workload(2, 40);
        let view = eval(&w.query, &w.db).unwrap();
        assert!(view.contains(&w.target));
        let fp = dap_relalg::OpFootprint::of(&w.query);
        assert!(fp.is_sj());
    }

    #[test]
    fn chain_workload_is_a_chain() {
        let w = chain_workload(3, 4, 8);
        assert!(dap_relalg::detect_chain_join(&w.query, &w.db.catalog()).is_some());
        assert!(eval(&w.query, &w.db).unwrap().contains(&w.target));
    }

    #[test]
    fn sju_and_spu_placement_targets_exist() {
        let w = sju_placement_workload(4, 20);
        let view = eval(&w.query, &w.db).unwrap();
        assert!(view.contains(&w.target.tuple));
        let w = spu_placement_workload(5, 30);
        let view = eval(&w.query, &w.db).unwrap();
        assert!(view.contains(&w.target.tuple));
    }

    #[test]
    fn pj_multiwitness_counts() {
        let w = pj_multiwitness_workload(3, 4, 2);
        let witnesses = dap_provenance::minimal_witnesses(&w.query, &w.db, &w.target).unwrap();
        assert_eq!(witnesses.len(), 4, "one witness per group");
    }

    #[test]
    fn median_time_is_sane() {
        let d = median_time(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(d < Duration::from_secs(1));
    }
}
