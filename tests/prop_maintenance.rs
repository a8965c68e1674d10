//! Differential property tests for **maintained views** (a one-query
//! `dap_relalg::PlanRegistry`) and the maintained `DeletionContext`:
//!
//! * under random deletion sequences over random `(Q, S)`, the maintained
//!   view must equal a fresh `eval_annotated` of the shrunken database
//!   after **every** step, for all five annotation instances;
//! * the `ViewDelta` each step reports must be exactly the difference
//!   between consecutive views;
//! * `DeletionContext::resolve_after_delete` (apply-and-re-solve on the
//!   maintained state) must return exactly what a context rebuilt from
//!   scratch on the deleted-from database returns;
//! * the serving-loop `*_turn` solvers (cached, in-place-patched
//!   [`WitnessIndex`]es) must match per-call re-stamping from the touch
//!   skeleton across apply-delete turns, and the apply-loop per-class fast
//!   paths (SPU linear / SJ component scan) must match the exact search
//!   they shortcut.
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
    fn resolve_after_delete_equals_rebuild_from_scratch(
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

        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        let sol1 = ctx.min_view_side_effects(&first, &opts).expect("solves");
        let resolved = ctx
            .resolve_after_delete(&sol1.deletions, &second, &opts)
            .expect("solves");

        let db2 = db.without(&sol1.deletions);
        let map = remap_table(&db, &sol1.deletions);
        if !eval(&q, &db2).expect("evaluates").contains(&second) {
            prop_assert!(resolved.is_none(), "target gone ⇒ nothing to re-solve");
            return Ok(());
        }
        let rebuilt = DeletionContext::new(&q, &db2).expect("builds");
        let fresh = rebuilt.min_view_side_effects(&second, &opts).expect("solves");
        let resolved = resolved.expect("target still in view");
        let translated: BTreeSet<Tid> =
            resolved.deletions.iter().map(|tid| remap_tid(&map, tid)).collect();
        prop_assert_eq!(translated, fresh.deletions, "deletion sets diverged");
        prop_assert_eq!(resolved.view_side_effects, fresh.view_side_effects);

        // Same loop under the source-side objective.
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        let sol1 = ctx.min_source_deletion(&first).expect("solves");
        ctx.apply_delete(&sol1.deletions);
        let db2 = db.without(&sol1.deletions);
        let map = remap_table(&db, &sol1.deletions);
        if !eval(&q, &db2).expect("evaluates").contains(&second) {
            prop_assert!(!ctx.contains(&second));
            return Ok(());
        }
        let resolved = ctx.min_source_deletion(&second).expect("solves");
        let rebuilt = DeletionContext::new(&q, &db2).expect("builds");
        let fresh = rebuilt.min_source_deletion(&second).expect("solves");
        let translated: BTreeSet<Tid> =
            resolved.deletions.iter().map(|tid| remap_tid(&map, tid)).collect();
        prop_assert_eq!(translated, fresh.deletions, "source deletion sets diverged");
        prop_assert_eq!(resolved.view_side_effects, fresh.view_side_effects);
    }

    /// The serving-loop dispatchers clear every requested target: after the
    /// loop, re-evaluating under the union of all committed deletions
    /// leaves none of the targets in the view, and each individual solution
    /// verifies against re-evaluation at its point in the stream.
    #[test]
    fn apply_many_clears_all_targets(
        (q, _) in typed_query(),
        db in small_database(),
    ) {
        let view = eval(&q, &db).expect("evaluates");
        prop_assume!(!view.is_empty());
        let targets: Vec<Tuple> = view.tuples.iter().take(3).cloned().collect();
        let sols = delete_min_view_side_effects_apply_many(&q, &db, &targets)
            .expect("solves");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
