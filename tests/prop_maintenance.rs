//! Differential property tests for **maintained views** (a one-query
//! `dap_relalg::PlanRegistry`) and the maintained `DeletionContext`:
//!
//! * under random deletion sequences over random `(Q, S)`, the maintained
//!   view must equal a fresh `eval_annotated` of the shrunken database
//!   after **every** step, for all five annotation instances;
//! * the `ViewDelta` each step reports must be exactly the difference
//!   between consecutive views;
//! * `DeletionContext::solve` after `apply_delete` (apply-and-re-solve on
//!   the maintained state) must return exactly what a context rebuilt from
//!   scratch on the deleted-from database returns;
//! * `solve` on cached, in-place-patched [`WitnessIndex`]es must match the
//!   uncached `&self` methods, which re-stamp from the touch skeleton,
//!   across apply-delete turns, and the per-class arms (SPU whole support,
//!   SJ component scan) must match the exact search they shortcut.
//!
//! The one wrinkle is *renumbering*: fresh evaluations of `S \ T` re-pack
//! row indices, while the registry keeps the original [`Tid`]s.
//! `Database::without` preserves relative row order, so the renumbering is
//! the monotone (hence order-preserving) map built by
//! `common::remap_table`; maintained annotations are translated through it
//! before comparison (`common::check_matches_fresh`).

mod common;

use common::{
    check_delta, check_matches_fresh, pick_batches, remap_table, remap_tid, remap_witnesses,
    small_database, typed_query, view_of, CanonAnn,
};
use dap::prelude::*;
use dap::provenance::{ExprAnn, LineageAnn, LocationsAnn, WitnessesAnn};
use dap::relalg::Unit;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The serving loop over one context: solve each live target, then commit
/// its deletion; `None` for targets an earlier commit already removed.
fn solve_loop(
    q: &Query,
    db: &Database,
    targets: &[Tuple],
    objective: Objective,
) -> Vec<Option<Deletion>> {
    let mut ctx = DeletionContext::new(q, db).expect("builds");
    targets
        .iter()
        .map(|t| {
            if !ctx.contains(t) {
                return None;
            }
            let (sol, _) = ctx
                .solve(t, objective, &ExactOptions::default())
                .expect("solves");
            ctx.apply_delete(&sol.deletions);
            Some(sol)
        })
        .collect()
}

/// Drive one `(Q, S)` instance through a deletion sequence, comparing the
/// maintained view against fresh evaluation after every batch.
fn check_instance<A: CanonAnn>(
    q: &Query,
    db: &Database,
    batches: &[Vec<Tid>],
) -> std::result::Result<(), TestCaseError> {
    let mut reg = PlanRegistry::<A>::new(db);
    let id = reg.register(q).expect("typed queries register");
    let mut deleted: BTreeSet<Tid> = BTreeSet::new();
    let mut before = view_of(&reg, id);
    for batch in batches {
        let delta = reg.delete_sources(batch).remove(0).1;
        deleted.extend(batch.iter().cloned());
        let after = view_of(&reg, id);
        check_delta(&before, &after, &delta)?;
        check_matches_fresh(&after, q, db, &deleted)?;
        before = after;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A maintained view equals fresh `eval_annotated` after every
    /// deletion step, for all five annotation instances.
    #[test]
    fn maintained_plan_tracks_fresh_eval_for_all_instances(
        (q, _) in typed_query(),
        db in small_database(),
        picks in proptest::collection::vec(
            proptest::collection::vec(any::<prop::sample::Index>(), 1..4), 1..5),
    ) {
        let batches = pick_batches(&db, &picks);
        check_instance::<Unit>(&q, &db, &batches)?;
        check_instance::<WitnessesAnn>(&q, &db, &batches)?;
        check_instance::<LocationsAnn>(&q, &db, &batches)?;
        check_instance::<LineageAnn>(&q, &db, &batches)?;
        check_instance::<ExprAnn>(&q, &db, &batches)?;
    }

    /// `DeletionContext::apply_delete` keeps the why-provenance and the
    /// frontier indexes equal to a context rebuilt from scratch on the
    /// deleted-from database (modulo tid renumbering).
    #[test]
    fn patched_context_equals_rebuilt_context(
        (q, _) in typed_query(),
        db in small_database(),
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let batch: BTreeSet<Tid> = pick_batches(&db, std::slice::from_ref(&picks))
            .remove(0)
            .into_iter()
            .collect();
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        ctx.apply_delete(&batch);
        let db2 = db.without(&batch);
        let rebuilt = DeletionContext::new(&q, &db2).expect("builds");
        prop_assert_eq!(ctx.view_len(), rebuilt.view_len());
        let map = remap_table(&db, &batch);
        for (t, ws) in rebuilt.why().iter() {
            let patched = ctx.why().witnesses_of(t).expect("same view tuples");
            prop_assert_eq!(
                remap_witnesses(&map, patched),
                ws.to_vec(),
                "witness basis diverged for {}",
                t
            );
            // Stamped instances and frontier indexes agree too.
            let (pi, pidx) = ctx.instance_and_index(t).expect("target in view");
            let (ri, ridx) = rebuilt.instance_and_index(t).expect("target in view");
            let psupport: Vec<Tid> = pi.support.iter().map(|tid| remap_tid(&map, tid)).collect();
            prop_assert_eq!(psupport, ri.support.clone(), "support diverged for {}", t);
            prop_assert_eq!(pidx.frontier_len(), ridx.frontier_len(), "frontier for {}", t);
        }
    }

    /// Apply-and-re-solve returns exactly what solving on a context rebuilt
    /// from scratch returns, for both objectives.
    #[test]
    fn solve_after_apply_delete_equals_rebuild_from_scratch(
        (q, _) in typed_query(),
        db in small_database(),
        t1 in any::<prop::sample::Index>(),
        t2 in any::<prop::sample::Index>(),
    ) {
        let view = eval(&q, &db).expect("evaluates");
        prop_assume!(!view.is_empty());
        let first = view.tuples[t1.index(view.len())].clone();
        let second = view.tuples[t2.index(view.len())].clone();
        let opts = ExactOptions::default();

        for objective in [Objective::View, Objective::Source] {
            let mut ctx = DeletionContext::new(&q, &db).expect("builds");
            // A what-if solve warms `second`'s index, so the re-solve runs
            // on an index the commit patched in place or evicted.
            ctx.solve(&second, objective, &opts).expect("solves");
            let (sol1, _) = ctx.solve(&first, objective, &opts).expect("solves");
            ctx.apply_delete(&sol1.deletions);

            let db2 = db.without(&sol1.deletions);
            let map = remap_table(&db, &sol1.deletions);
            if !eval(&q, &db2).expect("evaluates").contains(&second) {
                prop_assert!(!ctx.contains(&second), "target gone ⇒ nothing to re-solve");
                continue;
            }
            let (resolved, kind) = ctx.solve(&second, objective, &opts).expect("solves");
            let mut rebuilt = DeletionContext::new(&q, &db2).expect("builds");
            let (fresh, fresh_kind) = rebuilt.solve(&second, objective, &opts).expect("solves");
            prop_assert_eq!(kind, fresh_kind);
            let translated: BTreeSet<Tid> =
                resolved.deletions.iter().map(|tid| remap_tid(&map, tid)).collect();
            prop_assert_eq!(&translated, &fresh.deletions, "{} deletion sets diverged", objective);
            prop_assert_eq!(&resolved.view_side_effects, &fresh.view_side_effects);

            // The uncached methods agree on the patched state too.
            let (patched, rebuilt_sol) = match objective {
                Objective::View => (
                    ctx.min_view_side_effects(&second, &opts).expect("solves"),
                    rebuilt.min_view_side_effects(&second, &opts).expect("solves"),
                ),
                Objective::Source => (
                    ctx.min_source_deletion(&second).expect("solves"),
                    rebuilt.min_source_deletion(&second).expect("solves"),
                ),
            };
            let translated: BTreeSet<Tid> =
                patched.deletions.iter().map(|tid| remap_tid(&map, tid)).collect();
            prop_assert_eq!(translated, rebuilt_sol.deletions, "{} exact sets diverged", objective);
            prop_assert_eq!(patched.view_side_effects, rebuilt_sol.view_side_effects);
        }
    }

    /// The solve-then-commit serving loop clears every requested target,
    /// under both objectives: after the loop, re-evaluating under the union
    /// of all committed deletions leaves none of the targets in the view,
    /// and each individual solution verifies against re-evaluation at its
    /// point in the stream.
    #[test]
    fn apply_many_clears_all_targets(
        (q, _) in typed_query(),
        db in small_database(),
    ) {
        let view = eval(&q, &db).expect("evaluates");
        prop_assume!(!view.is_empty());
        let targets: Vec<Tuple> = view.tuples.iter().take(3).cloned().collect();
        for objective in [Objective::View, Objective::Source] {
        let sols = solve_loop(&q, &db, &targets, objective);
        prop_assert_eq!(sols.len(), targets.len());
        let mut committed: BTreeSet<Tid> = BTreeSet::new();
        for (t, sol) in targets.iter().zip(&sols) {
            match sol {
                Some(d) => {
                    // The target was present when its turn came; its commit
                    // removes it.
                    let before = eval(&q, &db.without(&committed)).expect("evaluates");
                    prop_assert!(before.contains(t), "Some(_) for a target not in the view");
                    committed.extend(d.deletions.iter().cloned());
                    let after = eval(&q, &db.without(&committed)).expect("evaluates");
                    prop_assert!(!after.contains(t), "commit left {} in the view", t);
                }
                None => {
                    // Already side-effected away by an earlier commit.
                    prop_assert!(
                        !eval(&q, &db.without(&committed)).expect("evaluates").contains(t),
                        "None for {} but it is still in the view",
                        t
                    );
                }
            }
        }
        let final_view = eval(&q, &db.without(&committed)).expect("evaluates");
        for t in &targets {
            prop_assert!(!final_view.contains(t), "{} survived the serving loop", t);
        }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `solve` (cached indexes, patched in place across commits) returns
    /// exactly what the uncached `&self` method of the same arm returns,
    /// which re-stamps from the touch skeleton — at every turn, for repeat
    /// targets, under both objectives.
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
                // Every arm answers the view objective as the exact search
                // does (SPU's support is the unique minimal deletion, SJ's
                // scan keeps the search's tie-break).
                let (cached, _) = ctx.solve(t, Objective::View, &opts).expect("solves");
                let fresh = ctx.min_view_side_effects(t, &opts).expect("solves");
                prop_assert_eq!(&cached, &fresh, "view objective, target {}", t);
                let (cached, kind) = ctx.solve(t, Objective::Source, &opts).expect("solves");
                let fresh = match kind {
                    SolverKind::Spu => ctx.spu_view_deletion(t),
                    // The SJ scan is the same for both objectives.
                    SolverKind::Sj => ctx.min_view_side_effects(t, &opts),
                    SolverKind::ChainMinCut => ctx.chain_min_source_deletion(t),
                    _ => ctx.min_source_deletion(t),
                }
                .expect("solves");
                prop_assert_eq!(&cached, &fresh, "source objective ({:?}), target {}", kind, t);
                let exact = ctx.min_source_deletion(t).expect("solves");
                prop_assert_eq!(cached.source_cost(), exact.source_cost(), "target {}", t);
            }
            prop_assert!(ctx.cached_index_count() > 0);
            // Commit a deletion; the cache is patched or evicted, never
            // left stale (the next iteration re-probes repeat targets).
            let target = &view[pick.index(view.len())];
            let (sol, _) = ctx.solve(target, Objective::View, &opts).expect("solves");
            ctx.apply_delete(&sol.deletions);
        }
    }

    /// The per-class arms (SPU whole support, SJ component scan) commit
    /// exactly what the exact search would have committed; the source
    /// objective matches the exact hitting set's cost and its committed
    /// deletions verify combinatorially at every turn.
    #[test]
    fn apply_loop_fast_paths_match_exact_search((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let opts = ExactOptions::default();
        for objective in [Objective::View, Objective::Source] {
            let mut ctx = DeletionContext::new(&q, &db).expect("builds");
            for t in &view.tuples {
                if !ctx.contains(t) {
                    continue; // removed by an earlier commit
                }
                let (sol, _) = ctx.solve(t, objective, &opts).expect("solves");
                match objective {
                    Objective::View => {
                        let exact = ctx.min_view_side_effects(t, &opts).expect("solves");
                        prop_assert_eq!(&sol, &exact, "target {}", t);
                    }
                    Objective::Source => {
                        let exact = ctx.min_source_deletion(t).expect("solves");
                        prop_assert_eq!(sol.source_cost(), exact.source_cost(), "target {}", t);
                        let inst = ctx.for_target(t).expect("in view");
                        prop_assert!(inst.deletes_target(&sol.deletions));
                        prop_assert_eq!(&sol.view_side_effects, &inst.side_effects(&sol.deletions));
                    }
                }
                ctx.apply_delete(&sol.deletions);
            }
        }
    }
}
