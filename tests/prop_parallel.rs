//! Differential property tests for the parallel runtime: every
//! pool-sharded code path must be **bit-identical** to its sequential
//! counterpart.
//!
//! * registry builds (`PlanRegistry::with_pool` + `register`) across
//!   thread counts {1, 2, max}, for all five annotation instances (tuples
//!   *and* annotations);
//! * the branch-and-bound's first-level fan-out
//!   (`min_view_side_effects_on_par`) against the sequential search;
//! * the batched dichotomy dispatchers (`*_many_with`) for both solver
//!   objectives across pool sizes;
//! * the batched annotation-placement path (`place_annotations_with`)
//!   across pool sizes, for all three dispatch arms;
//! * the serving-loop `*_turn` solvers (cached, in-place-patched
//!   [`WitnessIndex`]es) against per-call re-stamping from the touch
//!   skeleton, across apply-delete turns;
//! * the apply-loop per-class fast paths (SPU linear / SJ component scan)
//!   against the exact search they shortcut.

mod common;

use common::{small_database, typed_query};
use dap::core::deletion::view_side_effect::{
    min_view_side_effects_on, min_view_side_effects_on_par, ExactOptions,
};
use dap::prelude::*;
use dap::provenance::{ExprAnn, LineageAnn, LocationsAnn, WitnessesAnn};
use dap::relalg::{Annotated, Unit};
use proptest::prelude::*;

/// The pool sizes every differential runs across (1 = the exact
/// sequential code path; `max` exceeds this machine's likely core count
/// so over-subscription is exercised too).
fn pools() -> [ParPool; 3] {
    let auto = ParPool::auto().threads().max(3);
    [ParPool::sequential(), ParPool::new(2), ParPool::new(auto)]
}

/// The view `q` registers as in a one-query registry built on `pool`.
fn built_view<A: Annotation>(q: &Query, db: &Database, pool: ParPool) -> Annotated<A> {
    let mut reg = PlanRegistry::<A>::with_pool(db, pool);
    let id = reg.register(q).unwrap();
    reg.snapshot(id)
}

/// Parallel and sequential registry builds agree exactly for carrier `A`.
fn assert_build_pool_invariant<A: Annotation + std::fmt::Debug>(q: &Query, db: &Database) {
    let seq = built_view::<A>(q, db, ParPool::sequential());
    for pool in pools().into_iter().skip(1) {
        let par = built_view::<A>(q, db, pool);
        assert_eq!(seq.tuples(), par.tuples(), "{} threads", pool.threads());
        assert_eq!(
            seq.annotations(),
            par.annotations(),
            "{} threads",
            pool.threads()
        );
    }
}

/// A `(Q, S)` pair big enough to cross the data-parallel grain (the
/// proptest databases stay tiny, below it).
fn large_fixture() -> (Query, Database) {
    let users = 20;
    let groups = 8;
    let files = 20;
    let ug: Vec<Tuple> = (0..users)
        .flat_map(|u| (0..groups).map(move |g| tuple([format!("u{u}"), format!("g{g}")])))
        .collect();
    let gf: Vec<Tuple> = (0..groups)
        .flat_map(|g| (0..files).map(move |f| tuple([format!("g{g}"), format!("f{f}")])))
        .collect();
    let db = Database::from_relations(vec![
        Relation::new("UserGroup", schema(["user", "grp"]), ug).unwrap(),
        Relation::new("GroupFile", schema(["grp", "file"]), gf).unwrap(),
    ])
    .unwrap();
    let q = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
    (q, db)
}

#[test]
fn large_parallel_build_identical_for_all_instances() {
    let (q, db) = large_fixture();
    assert_build_pool_invariant::<Unit>(&q, &db);
    assert_build_pool_invariant::<WitnessesAnn>(&q, &db);
    assert_build_pool_invariant::<LocationsAnn>(&q, &db);
    assert_build_pool_invariant::<LineageAnn>(&q, &db);
    assert_build_pool_invariant::<ExprAnn>(&q, &db);
}

#[test]
fn large_parallel_search_identical() {
    let (q, db) = large_fixture();
    let ctx = DeletionContext::new_with(&q, &db, ParPool::sequential()).unwrap();
    let opts = ExactOptions::default();
    let target = tuple(["u0", "f0"]);
    let (_, mut idx) = ctx.instance_and_index(&target).unwrap();
    let seq = min_view_side_effects_on(&mut idx, &opts).unwrap();
    for pool in pools().into_iter().skip(1) {
        let (_, mut idx) = ctx.instance_and_index(&target).unwrap();
        let par = min_view_side_effects_on_par(&mut idx, &opts, pool).unwrap();
        assert_eq!(seq, par, "{} threads", pool.threads());
        assert_eq!(idx.deleted_len(), 0, "the index is left clean");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Registry construction is pool-invariant for every annotation
    /// carrier (tiny databases: shape coverage for the sequential
    /// fallbacks of every sharded kernel).
    #[test]
    fn parallel_build_identical_for_all_instances(
        (q, _) in typed_query(),
        db in small_database(),
    ) {
        assert_build_pool_invariant::<Unit>(&q, &db);
        assert_build_pool_invariant::<WitnessesAnn>(&q, &db);
        assert_build_pool_invariant::<LocationsAnn>(&q, &db);
        assert_build_pool_invariant::<LineageAnn>(&q, &db);
        assert_build_pool_invariant::<ExprAnn>(&q, &db);
    }

    /// The first-level branch fan-out returns exactly the sequential
    /// search's solution, for every view tuple and every pool size.
    #[test]
    fn parallel_search_identical((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let ctx = DeletionContext::new_with(&q, &db, ParPool::sequential()).expect("builds");
        let opts = ExactOptions::default();
        for target in view.tuples.iter().take(3) {
            let (_, mut idx) = ctx.instance_and_index(target).expect("in view");
            let seq = min_view_side_effects_on(&mut idx, &opts).expect("solves");
            for pool in pools().into_iter().skip(1) {
                let (_, mut idx) = ctx.instance_and_index(target).expect("in view");
                let par = min_view_side_effects_on_par(&mut idx, &opts, pool).expect("solves");
                prop_assert_eq!(&seq, &par, "target {} threads {}", target, pool.threads());
            }
        }
    }

    /// The batched dispatchers return the same `Vec` for every pool size,
    /// for both solver objectives (covers the SPU / SJ / chain / exact
    /// dispatch arms as the generated query class varies).
    #[test]
    fn batched_dispatchers_pool_invariant((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let targets: Vec<Tuple> = view.tuples.iter().take(4).cloned().collect();
        let seq_view =
            delete_min_view_side_effects_many_with(&q, &db, &targets, ParPool::sequential())
                .expect("dispatches");
        let seq_source = delete_min_source_many_with(&q, &db, &targets, ParPool::sequential())
            .expect("dispatches");
        for pool in pools().into_iter().skip(1) {
            let par_view = delete_min_view_side_effects_many_with(&q, &db, &targets, pool)
                .expect("dispatches");
            prop_assert_eq!(&seq_view, &par_view, "threads {}", pool.threads());
            let par_source =
                delete_min_source_many_with(&q, &db, &targets, pool).expect("dispatches");
            prop_assert_eq!(&seq_source, &par_source, "threads {}", pool.threads());
        }
    }

    /// The batched annotation-placement path returns identical placements
    /// (and the same solver) for every pool size, across all three
    /// dispatch arms (SPU / SJU / generic) as the generated query class
    /// varies.
    #[test]
    fn batched_placement_pool_invariant((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let out_schema = dap::relalg::output_schema(&q, &db.catalog()).expect("typechecks");
        let targets: Vec<ViewLoc> = view
            .tuples
            .iter()
            .take(3)
            .flat_map(|t| {
                out_schema
                    .attrs()
                    .iter()
                    .take(2)
                    .map(|a| ViewLoc::new(t.clone(), a.clone()))
            })
            .collect();
        let (seq, seq_kind) =
            place_annotations_with(&q, &db, &targets, ParPool::sequential()).expect("places");
        for pool in pools().into_iter().skip(1) {
            let (par, par_kind) = place_annotations_with(&q, &db, &targets, pool).expect("places");
            prop_assert_eq!(&seq, &par, "threads {}", pool.threads());
            prop_assert_eq!(seq_kind, par_kind, "threads {}", pool.threads());
        }
    }

    /// The serving-loop `*_turn` solvers (cached indexes, patched in place
    /// across commits) return exactly what re-stamping from the touch
    /// skeleton returns — at every turn, for repeat targets, under both
    /// objectives.
    #[test]
    fn cached_turn_solvers_match_restamping(
        (q, _) in typed_query(),
        db in small_database(),
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..5),
    ) {
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        let opts = ExactOptions::default();
        for pick in &picks {
            let view: Vec<Tuple> = ctx.why().iter().map(|(t, _)| t.clone()).collect();
            if view.is_empty() {
                break;
            }
            for t in view.iter().take(3) {
                // Cached turn solve vs per-call re-stamp (`&self` entry
                // point), same context state.
                let cached = ctx.min_view_side_effects_turn(t, &opts).expect("solves");
                let fresh = ctx.min_view_side_effects(t, &opts).expect("solves");
                prop_assert_eq!(&cached, &fresh, "view objective, target {}", t);
                let cached = ctx.min_source_deletion_turn(t).expect("solves");
                let fresh = ctx.min_source_deletion(t).expect("solves");
                prop_assert_eq!(&cached, &fresh, "source objective, target {}", t);
            }
            prop_assert!(ctx.cached_index_count() > 0);
            // Commit a deletion; the cache is patched or evicted, never
            // left stale (the next iteration re-probes repeat targets).
            let target = &view[pick.index(view.len())];
            let sol = ctx.min_view_side_effects_turn(target, &opts).expect("solves");
            ctx.apply_delete(&sol.deletions);
        }
    }

    /// The apply-loop per-class fast paths (SPU linear scan, SJ component
    /// scan) commit exactly what the exact search would have committed;
    /// the source objective matches the exact hitting set's cost and its
    /// committed deletions verify combinatorially at every turn.
    #[test]
    fn apply_loop_fast_paths_match_exact_search((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let targets = view.tuples.clone();
        let sols = delete_min_view_side_effects_apply_many(&q, &db, &targets).expect("serves");
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        let opts = ExactOptions::default();
        for (t, sol) in targets.iter().zip(&sols) {
            if !ctx.contains(t) {
                prop_assert!(sol.is_none(), "removed targets resolve to None");
                continue;
            }
            let exact = ctx.min_view_side_effects(t, &opts).expect("solves");
            let sol = sol.as_ref().expect("live targets resolve");
            prop_assert_eq!(sol, &exact, "target {}", t);
            ctx.apply_delete(&sol.deletions);
        }
        let sols = delete_min_source_apply_many(&q, &db, &targets).expect("serves");
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        for (t, sol) in targets.iter().zip(&sols) {
            if !ctx.contains(t) {
                prop_assert!(sol.is_none());
                continue;
            }
            let sol = sol.as_ref().expect("live targets resolve");
            let exact = ctx.min_source_deletion(t).expect("solves");
            prop_assert_eq!(sol.source_cost(), exact.source_cost(), "target {}", t);
            let inst = ctx.for_target(t).expect("in view");
            prop_assert!(inst.deletes_target(&sol.deletions));
            prop_assert_eq!(&sol.view_side_effects, &inst.side_effects(&sol.deletions));
            ctx.apply_delete(&sol.deletions);
        }
    }
}
