//! Property tests for the unified 0/1-ILP deletion solver (`dap_core::ilp`):
//! cost-identity against the specialized solver stack on every dichotomy
//! class, exact agreement where optima are unique, and brute-force checks
//! on the ILP-only generalizations (weighted tuples, multi-tuple targets).

mod common;

use common::{small_database, typed_query};
use dap::core::deletion::source_side_effect::{min_source_deletion, spu_source_deletion};
use dap::core::deletion::view_side_effect::min_view_side_effects;
use dap::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Brute-force the minimum *weighted* source deletion over every subset of
/// the union support of `targets` (only called when the support is small).
fn brute_force_weighted_source(
    q: &Query,
    db: &Database,
    targets: &[Tuple],
    weights: &HashMap<Tid, u64>,
) -> Option<u64> {
    let ctx = DeletionContext::new(q, db).ok()?;
    let mut support: BTreeSet<Tid> = BTreeSet::new();
    for t in targets {
        support.extend(ctx.why().witnesses_of(t)?.iter().flatten().cloned());
    }
    let support: Vec<Tid> = support.into_iter().collect();
    if support.len() > 10 {
        return None;
    }
    let mut best: Option<u64> = None;
    for bits in 0u32..(1 << support.len()) {
        let deleted: BTreeSet<Tid> = support
            .iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, tid)| tid.clone())
            .collect();
        let after = eval(q, &db.without(&deleted)).ok()?;
        if targets.iter().any(|t| after.contains(t)) {
            continue;
        }
        let cost: u64 = deleted
            .iter()
            .map(|tid| weights.get(tid).copied().unwrap_or(1))
            .sum();
        best = Some(best.map_or(cost, |b: u64| b.min(cost)));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On arbitrary generated SPJRU queries the ILP's optima are
    /// cost-identical to the specialized exact solvers for **both**
    /// objectives, and its solutions verify against re-evaluation.
    #[test]
    fn ilp_matches_specialized_solvers((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let opts = IlpOptions::default();
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        for target in view.tuples.iter().take(3) {
            let exact_view = min_view_side_effects(&q, &db, target, &ExactOptions::default())
                .expect("solves");
            let ilp_view = ctx.min_view_side_effects_ilp_turn(target, &opts).expect("solves");
            prop_assert_eq!(ilp_view.view_cost(), exact_view.view_cost(), "view obj, {}", target);
            let exact_src = min_source_deletion(&q, &db, target).expect("solves");
            let ilp_src = ctx.min_source_deletion_ilp_turn(target, &opts).expect("solves");
            prop_assert_eq!(ilp_src.source_cost(), exact_src.source_cost(), "src obj, {}", target);
            let inst = DeletionInstance::build(&q, &db, target).expect("builds");
            prop_assert!(inst.verify_against_reevaluation(&ilp_view.deletions).expect("ok"));
            prop_assert!(inst.verify_against_reevaluation(&ilp_src.deletions).expect("ok"));
            // Reported side effects match reality.
            let after = eval(&q, &db.without(&ilp_view.deletions)).expect("ok");
            let dead: BTreeSet<Tuple> = view.tuples.iter()
                .filter(|t| *t != target && !after.contains(t))
                .cloned()
                .collect();
            prop_assert_eq!(dead, ilp_view.view_side_effects.clone());
        }
    }

    /// On the SPU class the optimum is unique (the target's own witness
    /// tuples, side-effect-free): the ILP returns the identical deletion
    /// set, not just an identical cost.
    #[test]
    fn ilp_is_identical_on_spu((q, _) in typed_query(), db in small_database()) {
        let fp = OpFootprint::of(&q);
        prop_assume!(!fp.join && !fp.rename);
        let view = eval(&q, &db).expect("evaluates");
        let opts = IlpOptions::default();
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        for target in view.tuples.iter().take(3) {
            let spu = spu_source_deletion(&q, &db, target).expect("SPU class");
            let ilp = ctx.min_source_deletion_ilp_turn(target, &opts).expect("solves");
            prop_assert_eq!(&ilp.deletions, &spu.deletions, "target {}", target);
            prop_assert_eq!(&ilp.view_side_effects, &spu.view_side_effects);
        }
    }

    /// On chain joins the ILP agrees with the maintained min-cut — on a
    /// fresh context **and** after serving-loop commits (both read the
    /// same patched provenance).
    #[test]
    fn ilp_matches_chain_min_cut_across_commits(db in small_database()) {
        let q = Query::scan("R").join(Query::scan("S")).project(["A", "C"]);
        let view = eval(&q, &db).expect("evaluates");
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        let opts = IlpOptions::default();
        let mut committed = false;
        for target in view.tuples.iter().take(4) {
            if !ctx.contains(target) {
                continue; // an earlier commit side-effected it away
            }
            let cut = ctx.chain_min_source_deletion(target).expect("chain");
            let ilp = ctx.min_source_deletion_ilp_turn(target, &opts).expect("solves");
            let exact = ctx.min_source_deletion(target).expect("solves");
            prop_assert_eq!(cut.source_cost(), ilp.source_cost(), "target {}", target);
            prop_assert_eq!(ilp.source_cost(), exact.source_cost(), "target {}", target);
            if !committed {
                // Commit the first solution so later targets exercise the
                // patched state on all three solvers.
                ctx.apply_delete(&cut.deletions);
                committed = true;
            }
        }
    }

    /// Weighted single-target requests match weighted brute force.
    #[test]
    fn weighted_ilp_matches_brute_force(
        db in small_database(),
        raw_weights in proptest::collection::vec(1u64..5, 16),
    ) {
        let q = Query::scan("R").join(Query::scan("S")).project(["A", "C"]);
        let view = eval(&q, &db).expect("evaluates");
        for target in view.tuples.iter().take(2) {
            let ctx = DeletionContext::new(&q, &db).expect("builds");
            let Some(ws) = ctx.why().witnesses_of(target) else { continue };
            let support: BTreeSet<Tid> = ws.iter().flatten().cloned().collect();
            let weights: HashMap<Tid, u64> = support
                .iter()
                .zip(raw_weights.iter().cycle())
                .map(|(tid, &w)| (tid.clone(), w))
                .collect();
            let targets = vec![target.clone()];
            let Some(brute) = brute_force_weighted_source(&q, &db, &targets, &weights) else {
                continue;
            };
            let req = IlpRequest::source(targets.clone()).weighted(weights.clone());
            let sol = ctx.solve_ilp(&req).expect("solves");
            let cost: u64 = sol
                .deletions
                .iter()
                .map(|tid| weights.get(tid).copied().unwrap_or(1))
                .sum();
            prop_assert_eq!(cost, brute, "target {}", target);
            let after = eval(&q, &db.without(&sol.deletions)).expect("ok");
            prop_assert!(!after.contains(target));
        }
    }

    /// Multi-tuple target sets match brute force over the union support —
    /// a variant no specialized solver covers.
    #[test]
    fn multi_target_ilp_matches_brute_force((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        prop_assume!(view.tuples.len() >= 2);
        let targets: Vec<Tuple> = view.tuples.iter().take(2).cloned().collect();
        let weights = HashMap::new();
        let Some(brute) = brute_force_weighted_source(&q, &db, &targets, &weights) else {
            return Ok(());
        };
        let sol = DeletionContext::new(&q, &db)
            .expect("builds")
            .solve_ilp(&IlpRequest::source(targets.clone()))
            .expect("solves");
        prop_assert_eq!(sol.source_cost() as u64, brute);
        let after = eval(&q, &db.without(&sol.deletions)).expect("ok");
        for t in &targets {
            prop_assert!(!after.contains(t), "{} must be gone", t);
        }
    }

    /// The `*_ilp_turn` entry points return the same solution on a warm
    /// context (the target's cached index) as on a fresh one (a newly
    /// stamped index).
    #[test]
    fn ilp_turns_match_uncached((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let targets: Vec<Tuple> = view.tuples.iter().take(2).cloned().collect();
        let mut ctx = DeletionContext::new(&q, &db).expect("builds");
        let opts = IlpOptions::default();
        for target in &targets {
            ctx.min_source_deletion_ilp_turn(target, &opts).expect("solves");
        }
        prop_assert_eq!(ctx.cached_index_count(), targets.len());
        for target in &targets {
            let fresh = || DeletionContext::new(&q, &db).expect("builds");
            let cold = fresh().min_source_deletion_ilp_turn(target, &opts).expect("solves");
            let turn = ctx.min_source_deletion_ilp_turn(target, &opts).expect("solves");
            prop_assert_eq!(&cold, &turn, "source turn, {}", target);
            let cold_v = fresh().min_view_side_effects_ilp_turn(target, &opts).expect("solves");
            let turn_v = ctx.min_view_side_effects_ilp_turn(target, &opts).expect("solves");
            prop_assert_eq!(&cold_v, &turn_v, "view turn, {}", target);
        }
    }
}
