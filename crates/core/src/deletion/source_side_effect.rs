//! The **source side-effect problem** (§2.2): delete `t` from the view with
//! as few source deletions as possible.
//!
//! Deleting `t` means hitting every minimal witness of `t`, so the minimum
//! source deletion *is* a minimum hitting set over the witness hypergraph:
//!
//! * [`min_source_deletion`] — exact, via `dap-setcover`'s branch-and-bound
//!   (set-cover-hard for PJ and JU queries, Thms 2.5 and 2.7);
//! * [`greedy_source_deletion`] — the `H_n`-approximation the paper points
//!   to, with the matching `Ω(log n)` lower bound \[12\];
//! * [`spu_source_deletion`] (Thm 2.8) and [`sj_source_deletion`] (Thm 2.9)
//!   — the polynomial classes.
//!
//! [`DeletionContext::solve`] runs [`min_source_deletion_on`] as its exact
//! source arm, on the target's cached index and under the solve's node
//! budget.

use crate::deletion::index::WitnessIndex;
use crate::deletion::view_side_effect::{sj_view_deletion, spu_view_deletion, ExactOptions};
#[cfg(test)]
use crate::deletion::DeletionInstance;
use crate::deletion::{Deletion, DeletionContext};
use crate::error::{CoreError, Result};
use dap_relalg::{Database, Query, Tuple};
use dap_setcover::{exact_hitting_set_bounded, greedy_hitting_set, HittingSet};
use std::collections::BTreeSet;

/// Translate the target's witness hypergraph into a `dap-setcover` hitting
/// set instance, straight off the index: element `i` is support slot `i`,
/// and set `j` is target witness `j`'s member slots.
fn to_hitting_set(idx: &WitnessIndex) -> HittingSet {
    let sets: Vec<BTreeSet<usize>> = (0..idx.target_witness_count())
        .map(|i| idx.target_witness_members(i).iter().copied().collect())
        .collect();
    HittingSet::new(idx.support().len(), sets)
        .expect("witnesses are non-empty and indices in range")
}

/// Exact minimum source deletion on a prebuilt (clean) index: the
/// hitting-set search over the target's witnesses, capped at
/// `opts.node_budget` search nodes, with the side effects read off the
/// counters. Leaves the index clean.
pub fn min_source_deletion_on(idx: &mut WitnessIndex, opts: &ExactOptions) -> Result<Deletion> {
    let budget = opts.node_budget;
    let chosen = exact_hitting_set_bounded(&to_hitting_set(idx), budget)
        .ok_or(CoreError::BudgetExhausted { budget })?;
    Ok(idx.deletion_of(chosen.iter().copied()))
}

/// Exact minimum source deletion for any monotone SPJRU query. Worst-case
/// exponential — the problem is as hard as set cover for PJ/JU queries
/// (Thms 2.5, 2.7).
///
/// Solves one target; to solve many targets over the same `(Q, S)`, build a
/// [`DeletionContext`] once and call
/// [`DeletionContext::min_source_deletion`] per target.
pub fn min_source_deletion(q: &Query, db: &Database, target: &Tuple) -> Result<Deletion> {
    DeletionContext::new(q, db)?.min_source_deletion(target)
}

/// Greedy `H_n`-approximate source deletion (the paper's §1 footnote 2: a
/// simple greedy achieves `O(log n)`, and nothing polynomial does better
/// unless `NP ⊆ DTIME(n^{log log n})` \[12\]).
pub fn greedy_source_deletion(q: &Query, db: &Database, target: &Tuple) -> Result<Deletion> {
    DeletionContext::new(q, db)?.greedy_source_deletion(target)
}

impl DeletionContext {
    /// [`min_source_deletion`] against this context's shared provenance.
    pub fn min_source_deletion(&self, target: &Tuple) -> Result<Deletion> {
        let (_, mut idx) = self.instance_and_index(target)?;
        min_source_deletion_on(&mut idx, &ExactOptions::default())
    }

    /// [`greedy_source_deletion`] against this context's shared provenance.
    pub fn greedy_source_deletion(&self, target: &Tuple) -> Result<Deletion> {
        let (_, mut idx) = self.instance_and_index(target)?;
        let chosen = greedy_hitting_set(&to_hitting_set(&idx));
        Ok(idx.deletion_of(chosen.iter().copied()))
    }
}

/// Theorem 2.8: for SPU queries the deletion set is **unique** (delete every
/// source tuple producing `t`), so it is simultaneously the view-side and
/// source-side optimum. Linear time.
pub fn spu_source_deletion(q: &Query, db: &Database, target: &Tuple) -> Result<Deletion> {
    // Identical solution to Theorem 2.3; delegate.
    spu_view_deletion(q, db, target)
}

/// Theorem 2.9: for SJ queries the single witness has one component per
/// joined relation — deleting **any one** component suffices, so the
/// minimum source deletion has size 1. Ties are broken toward the component
/// with the fewest view side effects (for free, since the paper leaves the
/// choice open).
pub fn sj_source_deletion(q: &Query, db: &Database, target: &Tuple) -> Result<Deletion> {
    // Thm 2.4's component scan (with its class check) already returns a
    // size-1 deletion with the best view-side tie-break.
    let sol = sj_view_deletion(q, db, target)?;
    debug_assert_eq!(sol.source_cost(), 1);
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_relalg::{parse_database, parse_query, tuple};

    fn usergroup() -> (Query, Database) {
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
        (q, db)
    }

    #[test]
    fn exact_minimum_on_two_witness_target() {
        let (q, db) = usergroup();
        let t = tuple(["bob", "report"]);
        let sol = min_source_deletion(&q, &db, &t).unwrap();
        // Two witnesses share no tuple… except each contains a bob-row and a
        // report-row; the two witnesses are {UG(bob,staff), GF(staff,report)}
        // and {UG(bob,dev), GF(dev,report)} — disjoint, so minimum is 2.
        assert_eq!(sol.source_cost(), 2);
        let inst = DeletionInstance::build(&q, &db, &t).unwrap();
        assert!(inst.deletes_target(&sol.deletions));
        assert!(inst.verify_against_reevaluation(&sol.deletions).unwrap());
    }

    #[test]
    fn exact_minimum_uses_shared_tuple() {
        // One middle tuple shared by all witnesses → minimum is 1.
        let db = parse_database(
            "relation R1(A, B) { (a1, x), (a2, x), (a3, x) }
             relation R2(B, C) { (x, c) }",
        )
        .unwrap();
        let q = parse_query("project(join(scan R1, scan R2), [A, C])").unwrap();
        // Delete (a1, c): its only witness needs (a1,x) or (x,c); minimum 1.
        let sol = min_source_deletion(&q, &db, &tuple(["a1", "c"])).unwrap();
        assert_eq!(sol.source_cost(), 1);
    }

    #[test]
    fn greedy_is_valid_and_bounded() {
        let (q, db) = usergroup();
        for t in dap_relalg::eval(&q, &db).unwrap().tuples.clone() {
            let greedy = greedy_source_deletion(&q, &db, &t).unwrap();
            let exact = min_source_deletion(&q, &db, &t).unwrap();
            let inst = DeletionInstance::build(&q, &db, &t).unwrap();
            assert!(inst.deletes_target(&greedy.deletions));
            assert!(greedy.source_cost() >= exact.source_cost());
            // On these tiny instances greedy should be within H_2 ≈ 1.5×.
            assert!(greedy.source_cost() <= exact.source_cost() * 2);
        }
    }

    #[test]
    fn spu_source_equals_view_solution_and_is_unique() {
        let db = parse_database(
            "relation R(A, B) { (a1, b1), (a1, b2) }
             relation S(A, B) { (a1, b9) }",
        )
        .unwrap();
        let q = parse_query("union(project(scan R, [A]), project(scan S, [A]))").unwrap();
        let t = tuple(["a1"]);
        let sol = spu_source_deletion(&q, &db, &t).unwrap();
        // All three source tuples project to a1 → unique deletion of size 3.
        assert_eq!(sol.source_cost(), 3);
        let exact = min_source_deletion(&q, &db, &t).unwrap();
        assert_eq!(exact.deletions, sol.deletions, "Thm 2.8: unique solution");
    }

    #[test]
    fn sj_minimum_is_one_tuple() {
        let db = parse_database(
            "relation R(A, B) { (a1, k) }
             relation S(B, C) { (k, c1), (k, c2) }",
        )
        .unwrap();
        let q = parse_query("join(scan R, scan S)").unwrap();
        let t = tuple(["a1", "k", "c1"]);
        let sol = sj_source_deletion(&q, &db, &t).unwrap();
        assert_eq!(sol.source_cost(), 1);
        // Tie-break: deleting (k,c1) has no side effects, deleting (a1,k)
        // would kill (a1,k,c2).
        assert!(sol.is_side_effect_free());
        let exact = min_source_deletion(&q, &db, &t).unwrap();
        assert_eq!(exact.source_cost(), 1);
    }

    #[test]
    fn sj_rejects_wrong_class() {
        let (q, db) = usergroup();
        assert!(matches!(
            sj_source_deletion(&q, &db, &tuple(["bob", "report"])),
            Err(CoreError::WrongClass { .. })
        ));
    }

    #[test]
    fn exact_beats_or_ties_greedy_on_adversarial_shape() {
        // A star: the middle tuple of R2 hits every witness; greedy should
        // also find it here, but sizes must satisfy exact ≤ greedy.
        let db = parse_database(
            "relation R1(A, B) { (a1, x), (a2, x), (a3, x), (a4, x) }
             relation R2(B, C) { (x, c) }",
        )
        .unwrap();
        let q = parse_query("project(join(scan R1, scan R2), [C])").unwrap();
        let t = tuple(["c"]);
        let exact = min_source_deletion(&q, &db, &t).unwrap();
        let greedy = greedy_source_deletion(&q, &db, &t).unwrap();
        assert_eq!(exact.source_cost(), 1, "delete (x, c)");
        assert!(greedy.source_cost() >= exact.source_cost());
    }

    #[test]
    fn missing_target_errors() {
        let (q, db) = usergroup();
        assert!(matches!(
            min_source_deletion(&q, &db, &tuple(["zz", "zz"])),
            Err(CoreError::TargetNotInView { .. })
        ));
        assert!(matches!(
            greedy_source_deletion(&q, &db, &tuple(["zz", "zz"])),
            Err(CoreError::TargetNotInView { .. })
        ));
    }
}
