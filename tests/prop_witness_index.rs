//! Differential property tests for the incremental witness-hypergraph
//! index: [`WitnessIndex`] must answer `side_effect_count` /
//! `side_effects` / `deletes_target` exactly as the naive
//! [`DeletionInstance`] hypergraph rescans, under arbitrary insert/remove
//! sequences (including remove-after-backtrack interleavings, the pattern
//! the branch-and-bound executes); [`DeletionContext`] must stamp out the
//! same instances `DeletionInstance::build` computes from scratch; and the
//! incremental solver must return exactly what the naive per-node-rescan
//! solver returns.

mod common;
#[path = "support/naive_search.rs"]
mod naive_search;

use common::{small_database, typed_query};
use dap::core::deletion::view_side_effect::{
    min_view_side_effects, side_effect_free, ExactOptions,
};
use dap::prelude::*;
use naive_search::min_view_side_effects_naive;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random walk over the support: at every step, toggle a random support
    /// tuple in/out of the deletion set (an arbitrary interleaving of
    /// descend-inserts and backtrack-removes) and compare every index
    /// answer against the naive rescans.
    #[test]
    fn index_tracks_naive_under_random_toggles(
        (q, _) in typed_query(),
        db in small_database(),
        toggles in proptest::collection::vec(any::<prop::sample::Index>(), 1..40),
    ) {
        let view = eval(&q, &db).expect("evaluates");
        for target in view.tuples.iter().take(2) {
            let inst = DeletionInstance::build(&q, &db, target).expect("builds");
            let mut idx = WitnessIndex::build(&inst);
            let support = inst.support.clone();
            let mut deleted: BTreeSet<Tid> = BTreeSet::new();
            for toggle in &toggles {
                let tid = &support[toggle.index(support.len())];
                if deleted.remove(tid) {
                    prop_assert!(idx.remove(tid));
                } else {
                    deleted.insert(tid.clone());
                    prop_assert!(idx.insert(tid));
                }
                prop_assert_eq!(
                    idx.side_effect_count(),
                    inst.side_effect_count(&deleted),
                    "count diverged at deletion set {:?}",
                    deleted
                );
                prop_assert_eq!(
                    idx.deletes_target(),
                    inst.deletes_target(&deleted),
                    "feasibility diverged at deletion set {:?}",
                    deleted
                );
                prop_assert_eq!(idx.side_effects(), inst.side_effects(&deleted));
                prop_assert_eq!(idx.deleted_tids(), deleted.clone());
            }
            // Unwind everything: the index must return to the empty state.
            for tid in std::mem::take(&mut deleted) {
                prop_assert!(idx.remove(&tid));
            }
            prop_assert_eq!(idx.side_effect_count(), 0);
            prop_assert!(!idx.deletes_target() || inst.deletes_target(&BTreeSet::new()));
            prop_assert!(idx.side_effects().is_empty());
        }
    }

    /// The probe [`WitnessIndex::delta_if_deleted`] predicts exactly the
    /// naive count difference, from arbitrary intermediate states.
    #[test]
    fn delta_probe_matches_naive_difference(
        (q, _) in typed_query(),
        db in small_database(),
        base in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let view = eval(&q, &db).expect("evaluates");
        for target in view.tuples.iter().take(2) {
            let inst = DeletionInstance::build(&q, &db, target).expect("builds");
            let mut idx = WitnessIndex::build(&inst);
            let support = inst.support.clone();
            // Move to a random base state first.
            let mut deleted: BTreeSet<Tid> = BTreeSet::new();
            for pick in &base {
                let tid = &support[pick.index(support.len())];
                if deleted.insert(tid.clone()) {
                    idx.insert(tid);
                }
            }
            let before = inst.side_effect_count(&deleted);
            for (slot, tid) in support.iter().enumerate() {
                if deleted.contains(tid) {
                    continue;
                }
                let mut bigger = deleted.clone();
                bigger.insert(tid.clone());
                let naive_delta = inst.side_effect_count(&bigger) - before;
                prop_assert_eq!(idx.delta_if_deleted(slot), naive_delta);
                // The probe must not disturb the state.
                prop_assert_eq!(idx.side_effect_count(), before);
            }
        }
    }

    /// One [`DeletionContext`] stamps out, for **every** view tuple, the
    /// same instance `DeletionInstance::build` recomputes from scratch —
    /// and its skeleton-built index equals the full-scan index.
    #[test]
    fn context_stamps_equal_fresh_builds((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        prop_assume!(!view.is_empty());
        let ctx = DeletionContext::new(&q, &db).expect("builds");
        for target in &view.tuples {
            let stamped = ctx.for_target(target).expect("stamps");
            let fresh = DeletionInstance::build(&q, &db, target).expect("builds");
            prop_assert_eq!(&stamped.target_witnesses, &fresh.target_witnesses);
            prop_assert_eq!(&stamped.support, &fresh.support);
            prop_assert_eq!(&*stamped.why, &*fresh.why);
            // Skeleton-built index ≡ full-scan index, probed on every slot.
            let mut via_ctx = ctx.index_for(&stamped);
            let mut via_scan = WitnessIndex::build(&fresh);
            prop_assert_eq!(via_ctx.frontier_len(), via_scan.frontier_len());
            for slot in 0..stamped.support.len() {
                prop_assert_eq!(
                    via_ctx.delta_if_deleted(slot),
                    via_scan.delta_if_deleted(slot)
                );
            }
        }
        // Missing targets error identically.
        let missing = tuple(["no", "such", "row"]);
        prop_assert!(ctx.for_target(&missing).is_err());
    }

    /// The incremental branch-and-bound returns **identical** solutions to
    /// the naive per-node-rescan baseline: same deletion set, same view
    /// cost, same side-effect sets (they drive the same search skeleton).
    #[test]
    fn incremental_solver_equals_naive_solver((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let opts = ExactOptions::default();
        for target in view.tuples.iter().take(3) {
            let fast = min_view_side_effects(&q, &db, target, &opts).expect("solves");
            let slow = min_view_side_effects_naive(&q, &db, target, &opts).expect("solves");
            prop_assert_eq!(&fast.deletions, &slow.deletions, "target {}", target);
            prop_assert_eq!(
                &fast.view_side_effects, &slow.view_side_effects,
                "target {}", target
            );
            // And the decision variant agrees with the optimum.
            let free = side_effect_free(&q, &db, target, &opts).expect("solves");
            prop_assert_eq!(free.is_some(), fast.view_cost() == 0, "target {}", target);
        }
    }

    /// Context-level solvers agree with the per-target free functions on
    /// every target of the view (the instance-sharing contract).
    #[test]
    fn context_solvers_match_free_functions((q, _) in typed_query(), db in small_database()) {
        use dap::core::deletion::source_side_effect::{
            greedy_source_deletion, min_source_deletion,
        };
        let view = eval(&q, &db).expect("evaluates");
        let opts = ExactOptions::default();
        let ctx = DeletionContext::new(&q, &db).expect("builds");
        for target in view.tuples.iter().take(3) {
            let a = ctx.min_view_side_effects(target, &opts).expect("solves");
            let b = min_view_side_effects(&q, &db, target, &opts).expect("solves");
            prop_assert_eq!(a, b, "view target {}", target);
            let a = ctx.min_source_deletion(target).expect("solves");
            let b = min_source_deletion(&q, &db, target).expect("solves");
            prop_assert_eq!(a, b, "source target {}", target);
            let a = ctx.greedy_source_deletion(target).expect("solves");
            let b = greedy_source_deletion(&q, &db, target).expect("solves");
            prop_assert_eq!(a, b, "greedy target {}", target);
        }
    }

    /// One context solving many targets (what-if solves, no commits)
    /// returns, solution and arm alike, what a one-shot dispatch returns
    /// for each target.
    #[test]
    fn batched_dispatch_matches_single((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let targets: Vec<Tuple> = view.tuples.iter().take(4).cloned().collect();
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        let opts = ExactOptions::default();
        for objective in [Objective::View, Objective::Source] {
            for t in &targets {
                let (sol, kind) = ctx.solve(t, objective, &opts).expect("solves");
                let (single, single_kind) = match objective {
                    Objective::View => delete_min_view_side_effects(&q, &db, t),
                    Objective::Source => delete_min_source(&q, &db, t),
                }
                .expect("solves");
                prop_assert_eq!(kind, single_kind, "{} target {}", objective, t);
                prop_assert_eq!(&sol, &single, "{} target {}", objective, t);
            }
        }
    }
}
