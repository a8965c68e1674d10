//! Property tests for provenance: witness soundness/minimality, the
//! forward/backward agreement of annotation propagation, Theorem 3.1's
//! annotation half — normalization preserves the location relation `R` —
//! and the **differential suite** pinning every instantiation of the
//! generic annotated-evaluation engine against its legacy single-purpose
//! implementation (plain eval, why, where, forward annotation, Boolean
//! lineage).

mod common;
#[path = "support/legacy_walks.rs"]
mod legacy_walks;

use common::{small_database, typed_query};
use dap::core::placement::generic::{min_side_effect_placements, PlacementIndex};
use dap::prelude::*;
use dap::provenance::{is_sufficient, participating_tids, propagate_all};
use dap::relalg::{eval_annotated, Unit};
use legacy_walks::{
    multipass_min_side_effect_placement, provenance_exprs_legacy, where_provenance_legacy,
    why_provenance_legacy,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every reported witness produces the tuple; every view tuple has at
    /// least one witness; witness tuple-ids exist.
    #[test]
    fn witnesses_are_sound((q, _) in typed_query(), db in small_database()) {
        let why = why_provenance(&q, &db).expect("computes");
        let view = eval(&q, &db).expect("evaluates");
        prop_assert_eq!(why.len(), view.len());
        for (t, ws) in why.iter() {
            prop_assert!(!ws.is_empty());
            for w in ws {
                for tid in w {
                    prop_assert!(db.tuple(tid).is_some());
                }
                prop_assert!(is_sufficient(&q, &db, w, t).expect("evaluates"),
                    "witness {:?} fails for {}", w, t);
            }
        }
    }

    /// Witness bases contain only inclusion-minimal sets, pairwise
    /// incomparable.
    #[test]
    fn witness_bases_are_antichains((q, _) in typed_query(), db in small_database()) {
        let why = why_provenance(&q, &db).expect("computes");
        for (_, ws) in why.iter() {
            for (i, a) in ws.iter().enumerate() {
                for (j, b) in ws.iter().enumerate() {
                    if i != j {
                        prop_assert!(!a.is_subset(b), "witness basis not an antichain");
                    }
                }
            }
        }
    }

    /// Dropping any single tuple from a minimal witness breaks it.
    #[test]
    fn witnesses_are_minimal((q, _) in typed_query(), db in small_database()) {
        let why = why_provenance(&q, &db).expect("computes");
        // Bound the work: check the first few tuples only.
        for (t, ws) in why.iter().take(4) {
            for w in ws.iter().take(4) {
                for drop in w {
                    let mut smaller = w.clone();
                    smaller.remove(drop);
                    prop_assert!(
                        !is_sufficient(&q, &db, &smaller, t).expect("evaluates"),
                        "witness {:?} for {} not minimal", w, t
                    );
                }
            }
        }
    }

    /// The forward propagation rules and inverted where-provenance agree on
    /// every source location.
    #[test]
    fn forward_equals_inverted_backward((q, _) in typed_query(), db in small_database()) {
        let wp = where_provenance(&q, &db).expect("computes");
        for tid in db.all_tids() {
            let rel = db.get(tid.rel.as_str()).expect("exists");
            for attr in rel.schema().attrs() {
                let src = SourceLoc::new(tid.clone(), attr.clone());
                let forward = propagate(&q, &db, &src).expect("computes");
                prop_assert_eq!(forward, wp.reached_from(&src), "location {}", src);
            }
        }
    }

    /// Where-provenance respects values: an annotation only lands on view
    /// fields holding the same value as the source field (annotations ride
    /// on copies).
    #[test]
    fn where_provenance_is_value_consistent((q, _) in typed_query(), db in small_database()) {
        let wp = where_provenance(&q, &db).expect("computes");
        for (t, sets) in wp.iter() {
            for (idx, locs) in sets.iter().enumerate() {
                for loc in locs {
                    let source_value = loc.value_in(&db).expect("location exists");
                    prop_assert_eq!(source_value, t.get(idx), "copied value must match");
                }
            }
        }
    }

    /// Theorem 3.1, annotation half: normalization preserves the relation
    /// `R(Q, S)` between source and view locations (up to the view's column
    /// order, which we realign).
    #[test]
    fn normal_form_preserves_annotation_relation(
        (q, sch) in typed_query(),
        db in small_database(),
    ) {
        let nf = normalize(&q, &db.catalog()).expect("normalizes");
        let nfq = nf.to_query();
        let wp_q = where_provenance(&q, &db).expect("computes");
        let wp_nf = where_provenance(&nfq, &db).expect("computes");
        // Realign NF view tuples to the original schema order.
        let positions = wp_nf.schema.positions_of(sch.attrs()).expect("same attr set");
        for tid in db.all_tids() {
            let rel = db.get(tid.rel.as_str()).expect("exists");
            for attr in rel.schema().attrs() {
                let src = SourceLoc::new(tid.clone(), attr.clone());
                let via_q = wp_q.reached_from(&src);
                let via_nf: BTreeSet<ViewLoc> = wp_nf
                    .reached_from(&src)
                    .into_iter()
                    .map(|v| ViewLoc::new(v.tuple.project_positions(&positions), v.attr))
                    .collect();
                prop_assert_eq!(via_q, via_nf, "R changed for {} on query {}", src, q);
            }
        }
    }

    /// Lineage is the per-relation union of witnesses and is contained in
    /// the witness support.
    #[test]
    fn lineage_matches_witness_support((q, _) in typed_query(), db in small_database()) {
        let why = why_provenance(&q, &db).expect("computes");
        for (t, ws) in why.iter().take(6) {
            let l = lineage(&q, &db, t).expect("computes");
            let support: BTreeSet<Tid> = ws.iter().flatten().cloned().collect();
            let flattened: BTreeSet<Tid> =
                l.values().flatten().cloned().collect();
            prop_assert_eq!(flattened, support);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential suite: each instantiation of the generic annotated-evaluation
// engine must agree with its legacy single-purpose implementation on random
// SPJRU queries and databases.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Unit instance ≡ plain evaluation: same schema, same sorted tuples.
    #[test]
    fn engine_unit_matches_plain_eval((q, _) in typed_query(), db in small_database()) {
        let ann = eval_annotated::<Unit>(&q, &db).expect("computes");
        let plain = eval(&q, &db).expect("evaluates");
        prop_assert_eq!(ann.schema, plain.schema);
        prop_assert_eq!(ann.tuples(), plain.tuples.as_slice());
    }

    /// Why instance ≡ legacy witness walk: identical minimal witness bases
    /// for every output tuple.
    #[test]
    fn engine_why_matches_legacy((q, _) in typed_query(), db in small_database()) {
        let fast = why_provenance(&q, &db).expect("computes");
        let slow = why_provenance_legacy(&q, &db).expect("computes");
        prop_assert_eq!(fast, slow);
    }

    /// Where instance ≡ legacy location walk: identical per-attribute source
    /// location sets for every output tuple.
    #[test]
    fn engine_where_matches_legacy((q, _) in typed_query(), db in small_database()) {
        let fast = where_provenance(&q, &db).expect("computes");
        let (schema, slow) = where_provenance_legacy(&q, &db).expect("computes");
        prop_assert_eq!(&fast.schema, &schema);
        let slow: Vec<_> = slow.iter().map(|(t, sets)| (t, sets.as_slice())).collect();
        prop_assert_eq!(fast.iter().collect::<Vec<_>>(), slow);
    }

    /// Batched forward propagation ≡ the legacy one-location-per-run rules:
    /// the index answers every source location exactly as `propagate` does.
    #[test]
    fn engine_propagate_all_matches_per_location((q, _) in typed_query(), db in small_database()) {
        let index = propagate_all(&q, &db).expect("computes");
        for tid in db.all_tids() {
            let rel = db.get(tid.rel.as_str()).expect("exists");
            for attr in rel.schema().attrs() {
                let src = SourceLoc::new(tid.clone(), attr.clone());
                let single = propagate(&q, &db, &src).expect("computes");
                prop_assert_eq!(index.reached_from(&src), single, "location {}", src);
            }
        }
    }

    /// Boolean-lineage instance ≡ legacy expression walk, compared
    /// semantically: same prime implicants (= minimal witnesses) and the
    /// same truth value under single- and double-deletion valuations.
    #[test]
    fn engine_exprs_match_legacy((q, _) in typed_query(), db in small_database()) {
        let fast = provenance_exprs(&q, &db).expect("computes");
        let (_, slow) = provenance_exprs_legacy(&q, &db).expect("computes");
        prop_assert_eq!(fast.len(), slow.len());
        let tids: Vec<Tid> = db.all_tids().collect();
        for (t, e) in fast.iter() {
            let legacy = slow.get(t).expect("same tuples");
            prop_assert_eq!(
                e.prime_implicants(), legacy.prime_implicants(), "implicants for {}", t
            );
            for (i, a) in tids.iter().enumerate().take(4) {
                let single: BTreeSet<Tid> = [a.clone()].into_iter().collect();
                prop_assert_eq!(e.eval_deleted(&single), legacy.eval_deleted(&single));
                for b in tids.iter().skip(i + 1).take(3) {
                    let double: BTreeSet<Tid> =
                        [a.clone(), b.clone()].into_iter().collect();
                    prop_assert_eq!(e.eval_deleted(&double), legacy.eval_deleted(&double));
                }
            }
        }
    }

    /// Lineage instance (participation semantics) ≡ the variable set of the
    /// Boolean lineage expression, and contains the minimal-witness support.
    #[test]
    fn engine_lineage_matches_expr_variables((q, _) in typed_query(), db in small_database()) {
        let lin = participating_tids(&q, &db).expect("computes");
        let exprs = provenance_exprs(&q, &db).expect("computes");
        let why = why_provenance(&q, &db).expect("computes");
        prop_assert_eq!(lin.len(), exprs.len());
        for (t, tids) in &lin {
            prop_assert_eq!(tids, &exprs.expr_of(t).expect("same tuples").variables());
            let support: BTreeSet<Tid> = why
                .witnesses_of(t)
                .expect("same tuples")
                .iter()
                .flatten()
                .cloned()
                .collect();
            prop_assert!(support.is_subset(tids), "support ⊆ participation for {}", t);
        }
    }

    /// The batched placement index agrees with the legacy multipass solver
    /// (candidates via the standalone backward walk + one forward
    /// propagation per candidate) on every view location.
    #[test]
    fn engine_placement_matches_multipass((q, _) in typed_query(), db in small_database()) {
        let view = eval(&q, &db).expect("evaluates");
        let targets: Vec<ViewLoc> = view
            .tuples
            .iter()
            .take(4)
            .flat_map(|t| {
                view.schema
                    .attrs()
                    .iter()
                    .map(|a| ViewLoc::new(t.clone(), a.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let index = PlacementIndex::build(&q, &db).expect("builds");
        let batched = min_side_effect_placements(&q, &db, &targets).expect("solves");
        for (target, fast) in targets.iter().zip(&batched) {
            prop_assert_eq!(fast, &index.place(target).expect("solves"));
            let slow = multipass_min_side_effect_placement(&q, &db, target).expect("solves");
            prop_assert_eq!(&fast.source, &slow.source, "target {}", target);
            prop_assert_eq!(&fast.side_effects, &slow.side_effects, "target {}", target);
        }
    }
}

/// The batched index, the batched solver and the multipass oracle agree on
/// every location of the paper's user/group/file view.
#[test]
fn batched_index_and_multipass_agree_everywhere() {
    let db = parse_database(
        "relation UserGroup(user, grp) {
             (ann, staff), (bob, staff), (bob, dev)
         }
         relation GroupFile(grp, file) {
             (staff, report), (dev, main), (dev, report)
         }",
    )
    .unwrap();
    let q = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
    let view = eval(&q, &db).unwrap();
    let index = PlacementIndex::build(&q, &db).unwrap();
    let targets: Vec<ViewLoc> = view
        .tuples
        .iter()
        .flat_map(|t| {
            view.schema
                .attrs()
                .iter()
                .map(|a| ViewLoc::new(t.clone(), a.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    let batched = min_side_effect_placements(&q, &db, &targets).unwrap();
    for (target, fast) in targets.iter().zip(&batched) {
        assert_eq!(fast, &index.place(target).unwrap());
        let slow = multipass_min_side_effect_placement(&q, &db, target).unwrap();
        assert_eq!(fast.source, slow.source, "target {target}");
        assert_eq!(fast.side_effects, slow.side_effects, "target {target}");
    }
}
