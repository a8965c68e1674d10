//! The generic exact placement solver.
//!
//! Candidates are exactly the where-provenance of the target location; the
//! side-effect set of a candidate is its forward propagation. Both are
//! polynomial in the materialized view and intermediates — which for PJ
//! queries can be exponential in the query size. Theorem 3.2 shows that
//! exponential dependence cannot be avoided (deciding side-effect-freeness
//! is NP-hard in combined complexity), so this is the best uniform
//! algorithm one can hope for.
//!
//! The hot path is **batched**: [`PlacementIndex`] runs the annotated
//! evaluator once (the engine's where-provenance instance) and inverts it
//! into a source-location → reached-view-locations map, so solving for a
//! target — or many targets — costs one tree walk total instead of one
//! forward propagation per candidate. The per-candidate multipass solver is
//! the differential-test oracle in `tests/support/legacy_walks.rs`.

use crate::error::{CoreError, Result};
use crate::placement::Placement;
use dap_provenance::{where_provenance, SourceLoc, ViewLoc, WhereProvenance};
use dap_relalg::{Database, Query};
use std::collections::{BTreeMap, BTreeSet};

/// The batched placement solver: one annotated evaluation, shared by every
/// candidate of every target over the same `(Q, S)`.
#[derive(Clone, Debug)]
pub struct PlacementIndex {
    wp: WhereProvenance,
    reached: BTreeMap<SourceLoc, BTreeSet<ViewLoc>>,
}

impl PlacementIndex {
    /// Evaluate `q` once with batched location annotations and invert the
    /// result into the forward index.
    pub fn build(q: &Query, db: &Database) -> Result<PlacementIndex> {
        let wp = where_provenance(q, db)?;
        let reached = wp.inverted();
        Ok(PlacementIndex { wp, reached })
    }

    /// The where-provenance underlying the index.
    pub fn where_provenance(&self) -> &WhereProvenance {
        &self.wp
    }

    /// Solve the minimum-side-effect placement for one target location.
    pub fn place(&self, target: &ViewLoc) -> Result<Placement> {
        let candidates: &BTreeSet<SourceLoc> = self
            .wp
            .locations_of(&target.tuple, &target.attr)
            .ok_or_else(|| CoreError::TargetLocationNotInView {
                loc: target.clone(),
            })?;
        if candidates.is_empty() {
            return Err(CoreError::NoCandidateLocation {
                loc: target.clone(),
            });
        }
        Ok(best_candidate(target, candidates, &self.reached))
    }
}

/// The shared selection loop: among `candidates` (iterated in their sorted
/// order, matching the legacy tie-break), pick the one whose reached set —
/// looked up in `reached` — has the fewest locations besides the target.
fn best_candidate(
    target: &ViewLoc,
    candidates: &BTreeSet<SourceLoc>,
    reached: &BTreeMap<SourceLoc, BTreeSet<ViewLoc>>,
) -> Placement {
    let mut best: Option<Placement> = None;
    for cand in candidates {
        let full = reached.get(cand).expect("candidates reach the view");
        debug_assert!(full.contains(target), "candidate must reach the target");
        // Strictly-better check against the index before cloning.
        let better = match &best {
            None => true,
            Some(b) => full.len() - 1 < b.side_effects.len(),
        };
        if better {
            let mut side_effects = full.clone();
            side_effects.remove(target);
            let done = side_effects.is_empty();
            best = Some(Placement {
                source: cand.clone(),
                side_effects,
            });
            if done {
                break; // cannot beat zero side effects
            }
        }
    }
    best.expect("candidates were non-empty")
}

/// Find the source location whose annotation reaches `target` with the
/// fewest other annotated view locations. One batched annotated evaluation,
/// inverted only for the target's candidate set (one extra view pass — not
/// one per candidate, and no full-index allocation). To solve many targets
/// over the same `(Q, S)`, build a [`PlacementIndex`] once (or call
/// [`min_side_effect_placements`]).
pub fn min_side_effect_placement(q: &Query, db: &Database, target: &ViewLoc) -> Result<Placement> {
    let wp = where_provenance(q, db)?;
    let candidates: &BTreeSet<SourceLoc> = wp
        .locations_of(&target.tuple, &target.attr)
        .ok_or_else(|| CoreError::TargetLocationNotInView {
            loc: target.clone(),
        })?;
    if candidates.is_empty() {
        return Err(CoreError::NoCandidateLocation {
            loc: target.clone(),
        });
    }
    let reached = wp.inverted_for(candidates);
    Ok(best_candidate(target, candidates, &reached))
}

/// Solve the placement problem for many targets with **one** annotated
/// evaluation shared across all of them.
pub fn min_side_effect_placements(
    q: &Query,
    db: &Database,
    targets: &[ViewLoc],
) -> Result<Vec<Placement>> {
    let index = PlacementIndex::build(q, db)?;
    targets.iter().map(|t| index.place(t)).collect()
}

/// Decide whether a side-effect-free annotation exists for `target`
/// (the §3.1 dichotomy question), returning one if so.
pub fn side_effect_free_placement(
    q: &Query,
    db: &Database,
    target: &ViewLoc,
) -> Result<Option<Placement>> {
    let best = min_side_effect_placement(q, db, target)?;
    Ok(best.is_side_effect_free().then_some(best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_provenance::propagate;
    use dap_relalg::{parse_database, parse_query, tuple, Tid};

    fn fixture() -> (Query, Database) {
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
    fn finds_side_effect_free_candidate() {
        let (q, db) = fixture();
        // Annotate (ann, report).user: the only candidate is
        // (UserGroup(ann,staff), user), which reaches nothing else.
        let target = ViewLoc::new(tuple(["ann", "report"]), "user");
        let p = min_side_effect_placement(&q, &db, &target).unwrap();
        assert!(p.is_side_effect_free());
        assert_eq!(
            p.source,
            SourceLoc::new(
                db.tid_of("UserGroup", &tuple(["ann", "staff"])).unwrap(),
                "user"
            )
        );
        // Verify with the independent forward propagator.
        let reached = propagate(&q, &db, &p.source).unwrap();
        assert_eq!(reached, BTreeSet::from([target]));
    }

    #[test]
    fn reports_min_side_effects_when_unavoidable() {
        let (q, db) = fixture();
        // (bob, report).user candidates: bob's two UserGroup rows.
        // via staff: reaches only (bob,report) — staff gives bob only
        // report. via dev: reaches (bob,report) and (bob,main).
        let target = ViewLoc::new(tuple(["bob", "report"]), "user");
        let p = min_side_effect_placement(&q, &db, &target).unwrap();
        assert!(p.is_side_effect_free());
        assert_eq!(
            p.source,
            SourceLoc::new(
                db.tid_of("UserGroup", &tuple(["bob", "staff"])).unwrap(),
                "user"
            )
        );
        // And (bob, main).user has exactly one candidate, which also hits
        // (bob, report).user? No — (bob,dev).user reaches main and report.
        let target = ViewLoc::new(tuple(["bob", "main"]), "user");
        let p = min_side_effect_placement(&q, &db, &target).unwrap();
        assert_eq!(p.cost(), 1);
        assert!(p
            .side_effects
            .contains(&ViewLoc::new(tuple(["bob", "report"]), "user")));
        assert!(side_effect_free_placement(&q, &db, &target)
            .unwrap()
            .is_none());
    }

    #[test]
    fn file_attribute_candidates() {
        let (q, db) = fixture();
        // (bob, report).file: candidates (staff,report).file and
        // (dev,report).file. (staff,report).file also reaches
        // (ann,report).file; (dev,report).file reaches only bob's row —
        // side-effect-free.
        let target = ViewLoc::new(tuple(["bob", "report"]), "file");
        let p = min_side_effect_placement(&q, &db, &target).unwrap();
        assert!(p.is_side_effect_free());
        assert_eq!(
            p.source,
            SourceLoc::new(
                db.tid_of("GroupFile", &tuple(["dev", "report"])).unwrap(),
                "file"
            )
        );
    }

    #[test]
    fn missing_location_errors() {
        let (q, db) = fixture();
        let err = min_side_effect_placement(&q, &db, &ViewLoc::new(tuple(["zz", "zz"]), "user"))
            .unwrap_err();
        assert!(matches!(err, CoreError::TargetLocationNotInView { .. }));
        let err =
            min_side_effect_placement(&q, &db, &ViewLoc::new(tuple(["ann", "report"]), "nope"))
                .unwrap_err();
        assert!(matches!(err, CoreError::TargetLocationNotInView { .. }));
    }

    #[test]
    fn solution_verified_by_forward_propagation() {
        let (q, db) = fixture();
        let view = dap_relalg::eval(&q, &db).unwrap();
        for t in &view.tuples {
            for attr in view.schema.attrs() {
                let target = ViewLoc::new(t.clone(), attr.clone());
                let p = min_side_effect_placement(&q, &db, &target).unwrap();
                let mut reached = propagate(&q, &db, &p.source).unwrap();
                assert!(reached.contains(&target));
                reached.remove(&target);
                assert_eq!(reached, p.side_effects, "target {target}");
            }
        }
    }

    #[test]
    fn union_placement_counts_cross_branch_effects() {
        let db = parse_database(
            "relation R(A) { (v) }
             relation S(A) { (v), (w) }",
        )
        .unwrap();
        let q = parse_query("union(scan R, scan S)").unwrap();
        // (v).A candidates: R's v (reaches only the merged (v)) and S's v
        // (same). Both side-effect-free.
        let p = min_side_effect_placement(&q, &db, &ViewLoc::new(tuple(["v"]), "A")).unwrap();
        assert!(p.is_side_effect_free());

        // A self-union duplicates locations: union(scan S, scan S).
        let q = parse_query("union(scan S, scan S)").unwrap();
        let p = min_side_effect_placement(&q, &db, &ViewLoc::new(tuple(["w"]), "A")).unwrap();
        assert!(p.is_side_effect_free());
        assert_eq!(p.source, SourceLoc::new(Tid::new("S", 1), "A"));
    }
}
