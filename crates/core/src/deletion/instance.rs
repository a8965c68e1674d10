//! The witness hypergraph of a deletion problem.
//!
//! For a monotone query, `t ∈ Q(S \ T)` iff some minimal witness of `t`
//! survives `T` intact, so:
//!
//! * deleting `t` ⇔ `T` **hits** every minimal witness of `t`
//!   (hitting-set structure — Section 2.2 of the paper), and
//! * a side-effect on another view tuple `t'` occurs ⇔ `T` hits every
//!   minimal witness of `t'` (the quantity Section 2.1 minimizes).
//!
//! [`DeletionInstance`] materializes the why-provenance once and answers both
//! questions combinatorially, so the search solvers never re-evaluate the
//! query.

use crate::error::{CoreError, Result};
use dap_provenance::{why_provenance, WhyProvenance, Witness};
use dap_relalg::{Database, Query, Tid, Tuple};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A deletion problem `(Q, S, t)` with its witness hypergraph materialized.
///
/// The query, database, and why-provenance are held by [`Arc`] so the
/// branch-and-bound solvers — and a [`crate::deletion::DeletionContext`]
/// stamping out one instance per target over the same `(Q, S)` — share a
/// single copy instead of deep-cloning (or recomputing) per instance.
#[derive(Clone, Debug)]
pub struct DeletionInstance {
    /// The query (shared, not cloned per instance).
    pub query: Arc<Query>,
    /// The source database (shared, not cloned per instance).
    pub db: Arc<Database>,
    /// The view tuple to delete.
    pub target: Tuple,
    /// Why-provenance of the whole view (shared across targets).
    pub why: Arc<WhyProvenance>,
    /// Minimal witnesses of the target (the sets to hit).
    pub target_witnesses: Vec<Witness>,
    /// Union of the target's witnesses — the candidate deletion pool
    /// (anything outside it only adds side effects). Sorted.
    pub support: Vec<Tid>,
    /// Source tuples already deleted from `db` before this instance's
    /// problem was posed (empty for fresh builds). A
    /// [`crate::deletion::DeletionContext`] that has applied committed
    /// deletions stamps them here so
    /// [`DeletionInstance::verify_against_reevaluation`] evaluates the
    /// right baseline; the combinatorial answers need no adjustment —
    /// the patched why-provenance already excludes dead tuples. Shared
    /// with the context, so stamping an instance never copies it.
    pub committed: Arc<BTreeSet<Tid>>,
}

impl DeletionInstance {
    /// Build the instance; errors if `target` is not in the view.
    ///
    /// Clones `query` and `db` once into shared handles; callers that
    /// already hold [`Arc`]s (or build many instances over the same pair)
    /// should use [`DeletionInstance::build_shared`].
    pub fn build(query: &Query, db: &Database, target: &Tuple) -> Result<DeletionInstance> {
        DeletionInstance::build_shared(Arc::new(query.clone()), Arc::new(db.clone()), target)
    }

    /// Build the instance from shared handles, without cloning the query or
    /// the database.
    pub fn build_shared(
        query: Arc<Query>,
        db: Arc<Database>,
        target: &Tuple,
    ) -> Result<DeletionInstance> {
        let why = Arc::new(why_provenance(&query, &db)?);
        let target_witnesses = why
            .witnesses_of(target)
            .ok_or_else(|| CoreError::TargetNotInView {
                tuple: target.clone(),
            })?
            .to_vec();
        let support: BTreeSet<Tid> = target_witnesses.iter().flatten().cloned().collect();
        Ok(DeletionInstance {
            query,
            db,
            target: target.clone(),
            why,
            target_witnesses,
            support: support.into_iter().collect(),
            committed: Arc::default(),
        })
    }

    /// Whether deleting `deleted` removes the target from the view
    /// (hits every target witness).
    pub fn deletes_target(&self, deleted: &BTreeSet<Tid>) -> bool {
        self.target_witnesses
            .iter()
            .all(|w| w.iter().any(|tid| deleted.contains(tid)))
    }

    /// The view tuples other than the target that deleting `deleted` kills.
    pub fn side_effects(&self, deleted: &BTreeSet<Tid>) -> BTreeSet<Tuple> {
        self.why
            .iter()
            .filter(|(t, _)| **t != self.target)
            .filter(|(_, ws)| ws.iter().all(|w| w.iter().any(|tid| deleted.contains(tid))))
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// Count-only variant of [`Self::side_effects`] (used in inner search
    /// loops).
    pub fn side_effect_count(&self, deleted: &BTreeSet<Tid>) -> usize {
        self.why
            .iter()
            .filter(|(t, _)| **t != self.target)
            .filter(|(_, ws)| ws.iter().all(|w| w.iter().any(|tid| deleted.contains(tid))))
            .count()
    }

    /// Re-evaluate the query on `S \ deleted` and confirm the combinatorial
    /// answers: the target is gone and the side effects match. Used by tests
    /// and the `verify` path of the solvers. Deletions in
    /// [`DeletionInstance::committed`] are applied to both sides of the
    /// comparison (they happened before this problem was posed).
    pub fn verify_against_reevaluation(&self, deleted: &BTreeSet<Tid>) -> Result<bool> {
        let mut full: BTreeSet<Tid> = (*self.committed).clone();
        full.extend(deleted.iter().cloned());
        let after = dap_relalg::eval(&self.query, &self.db.without(&full))?;
        let expected_gone = self.deletes_target(deleted);
        let actually_gone = !after.contains(&self.target);
        if expected_gone != actually_gone {
            return Ok(false);
        }
        let predicted: BTreeSet<Tuple> = self.side_effects(deleted);
        let before = dap_relalg::eval(&self.query, &self.db.without(&self.committed))?;
        let actually_dead: BTreeSet<Tuple> = before
            .tuples
            .iter()
            .filter(|t| **t != self.target && !after.contains(t))
            .cloned()
            .collect();
        Ok(predicted == actually_dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_relalg::{parse_database, parse_query, tuple};

    fn instance() -> DeletionInstance {
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
        DeletionInstance::build(&q, &db, &tuple(["bob", "report"])).unwrap()
    }

    #[test]
    fn build_collects_target_witnesses_and_support() {
        let inst = instance();
        assert_eq!(inst.target_witnesses.len(), 2);
        assert_eq!(inst.support.len(), 4);
    }

    #[test]
    fn build_rejects_missing_target() {
        let db = parse_database("relation R(A) { (a) }").unwrap();
        let q = parse_query("scan R").unwrap();
        let err = DeletionInstance::build(&q, &db, &tuple(["zz"])).unwrap_err();
        assert!(matches!(err, CoreError::TargetNotInView { .. }));
    }

    #[test]
    fn deletes_target_requires_hitting_all_witnesses() {
        let inst = instance();
        // Deleting just (bob, staff) leaves the dev witness alive.
        let one = BTreeSet::from([inst
            .db
            .tid_of("UserGroup", &tuple(["bob", "staff"]))
            .unwrap()]);
        assert!(!inst.deletes_target(&one));
        // Deleting both of bob's memberships kills the target.
        let both: BTreeSet<Tid> = [
            inst.db
                .tid_of("UserGroup", &tuple(["bob", "staff"]))
                .unwrap(),
            inst.db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap(),
        ]
        .into();
        assert!(inst.deletes_target(&both));
        // …but with a side effect: (bob, main) dies too.
        assert_eq!(
            inst.side_effects(&both),
            BTreeSet::from([tuple(["bob", "main"])])
        );
        assert_eq!(inst.side_effect_count(&both), 1);
    }

    #[test]
    fn alternative_deletion_is_side_effect_free() {
        let inst = instance();
        // Delete (staff,report) and (dev,report) from GroupFile: kills
        // bob/report AND ann/report — has a side effect.
        let files: BTreeSet<Tid> = [
            inst.db
                .tid_of("GroupFile", &tuple(["staff", "report"]))
                .unwrap(),
            inst.db
                .tid_of("GroupFile", &tuple(["dev", "report"]))
                .unwrap(),
        ]
        .into();
        assert!(inst.deletes_target(&files));
        assert_eq!(inst.side_effects(&files).len(), 1);
        // Mixed: delete (bob,staff) + (dev,report): kills both witnesses of
        // the target and nothing else.
        let mixed: BTreeSet<Tid> = [
            inst.db
                .tid_of("UserGroup", &tuple(["bob", "staff"]))
                .unwrap(),
            inst.db
                .tid_of("GroupFile", &tuple(["dev", "report"]))
                .unwrap(),
        ]
        .into();
        assert!(inst.deletes_target(&mixed));
        assert!(inst.side_effects(&mixed).is_empty());
    }

    #[test]
    fn combinatorics_agree_with_reevaluation() {
        let inst = instance();
        // Exhaustively check every subset of the support (4 tuples → 16).
        let support = inst.support.clone();
        for bits in 0u32..(1 << support.len()) {
            let deleted: BTreeSet<Tid> = support
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, tid)| tid.clone())
                .collect();
            assert!(
                inst.verify_against_reevaluation(&deleted).unwrap(),
                "mismatch for deletion set {deleted:?}"
            );
        }
    }

    #[test]
    fn empty_deletion_changes_nothing() {
        let inst = instance();
        let none = BTreeSet::new();
        assert!(!inst.deletes_target(&none));
        assert!(inst.side_effects(&none).is_empty());
    }
}
