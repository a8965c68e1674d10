//! Where-provenance: for every view location, the set of source locations
//! whose annotations would propagate to it.
//!
//! This is the form of provenance the paper identifies with **annotation
//! placement** (Section 3): under the forward propagation rules, an
//! annotation placed on source location `ℓ` appears at view location `v` iff
//! `ℓ ∈ where(v)`. The computation runs on the generic annotated evaluator
//! ([`dap_relalg::eval_annotated`]) with the [`LocationsAnn`] instance — the
//! backward reading of the paper's five forward rules, batched over *all*
//! source locations in one pass; `crate::annotate` implements the forward
//! reading independently, and the two are cross-checked by tests. The
//! original standalone walk is the differential-test oracle in
//! `tests/support/legacy_walks.rs`.

use crate::engine::LocationsAnn;
use crate::location::{SourceLoc, ViewLoc};
use dap_relalg::{eval_annotated, Attr, Database, Query, Result, Schema, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// Per-attribute source-location sets for every output tuple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WhereProvenance {
    /// The view's schema.
    pub schema: Schema,
    /// For each output tuple, one location set per schema position.
    map: BTreeMap<Tuple, Vec<BTreeSet<SourceLoc>>>,
}

impl WhereProvenance {
    /// The output tuples, in sorted order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.map.keys()
    }

    /// The source locations that propagate to `(t, attr)`, if the view
    /// contains `t` and its schema contains `attr`.
    pub fn locations_of(&self, t: &Tuple, attr: &Attr) -> Option<&BTreeSet<SourceLoc>> {
        let idx = self.schema.index_of(attr)?;
        self.map.get(t).map(|sets| &sets[idx])
    }

    /// Iterate over `(tuple, per-position location sets)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &[BTreeSet<SourceLoc>])> {
        self.map.iter().map(|(t, sets)| (t, sets.as_slice()))
    }

    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Invert into the paper's relation `R(Q, S)` between source and view
    /// locations: all `(ℓ, v)` pairs such that an annotation on `ℓ`
    /// propagates to `v`.
    pub fn location_relation(&self) -> BTreeSet<(SourceLoc, ViewLoc)> {
        let mut out = BTreeSet::new();
        for (t, sets) in &self.map {
            for (idx, locs) in sets.iter().enumerate() {
                let attr = self.schema.attrs()[idx].clone();
                for loc in locs {
                    out.insert((loc.clone(), ViewLoc::new(t.clone(), attr.clone())));
                }
            }
        }
        out
    }

    /// Invert into a batched forward index in **one pass** over the view:
    /// every source location mapped to the full set of view locations it
    /// reaches. Use this instead of calling [`WhereProvenance::reached_from`]
    /// per candidate (which re-scans the whole view on every call) — the
    /// placement hot loop does.
    pub fn inverted(&self) -> BTreeMap<SourceLoc, BTreeSet<ViewLoc>> {
        let mut out: BTreeMap<SourceLoc, BTreeSet<ViewLoc>> = BTreeMap::new();
        for (t, sets) in &self.map {
            for (idx, locs) in sets.iter().enumerate() {
                let attr = &self.schema.attrs()[idx];
                for loc in locs {
                    out.entry(loc.clone())
                        .or_default()
                        .insert(ViewLoc::new(t.clone(), attr.clone()));
                }
            }
        }
        out
    }

    /// Like [`WhereProvenance::inverted`], but materializing only the
    /// source locations in `only` — still a single pass over the view.
    /// This is the single-target placement path: with `k` candidates it
    /// replaces `k` [`WhereProvenance::reached_from`] view scans by one,
    /// without paying the full-index allocation.
    pub fn inverted_for(
        &self,
        only: &BTreeSet<SourceLoc>,
    ) -> BTreeMap<SourceLoc, BTreeSet<ViewLoc>> {
        let mut out: BTreeMap<SourceLoc, BTreeSet<ViewLoc>> = BTreeMap::new();
        for (t, sets) in &self.map {
            for (idx, locs) in sets.iter().enumerate() {
                let attr = &self.schema.attrs()[idx];
                for loc in locs {
                    if only.contains(loc) {
                        out.entry(loc.clone())
                            .or_default()
                            .insert(ViewLoc::new(t.clone(), attr.clone()));
                    }
                }
            }
        }
        out
    }

    /// All view locations reached from `src` (forward propagation computed
    /// by inversion).
    pub fn reached_from(&self, src: &SourceLoc) -> BTreeSet<ViewLoc> {
        let mut out = BTreeSet::new();
        for (t, sets) in &self.map {
            for (idx, locs) in sets.iter().enumerate() {
                if locs.contains(src) {
                    out.insert(ViewLoc::new(t.clone(), self.schema.attrs()[idx].clone()));
                }
            }
        }
        out
    }
}

/// Compute the where-provenance of every location in `Q(db)`, in one pass
/// of the generic annotated evaluator.
pub fn where_provenance(q: &Query, db: &Database) -> Result<WhereProvenance> {
    let (schema, tuples, annots) = eval_annotated::<LocationsAnn>(q, db)?.into_parts();
    let map = tuples
        .into_iter()
        .zip(annots.into_iter().map(|a| a.0))
        .collect();
    Ok(WhereProvenance { schema, map })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_relalg::{eval, parse_database, parse_query, tuple};

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

    fn src(db: &Database, rel: &str, t: &Tuple, attr: &str) -> SourceLoc {
        SourceLoc::new(db.tid_of(rel, t).unwrap(), attr)
    }

    #[test]
    fn tuples_match_plain_eval() {
        let (q, db) = fixture();
        let wp = where_provenance(&q, &db).unwrap();
        let plain = eval(&q, &db).unwrap();
        let tuples: Vec<_> = wp.tuples().cloned().collect();
        assert_eq!(tuples, plain.tuples);
    }

    #[test]
    fn scan_locations_are_identities() {
        let (_, db) = fixture();
        let wp = where_provenance(&Query::scan("UserGroup"), &db).unwrap();
        let t = tuple(["ann", "staff"]);
        let locs = wp.locations_of(&t, &"user".into()).unwrap();
        assert_eq!(locs.len(), 1);
        assert_eq!(
            locs.iter().next().unwrap(),
            &src(&db, "UserGroup", &t, "user")
        );
    }

    #[test]
    fn projection_merges_locations() {
        let (q, db) = fixture();
        let wp = where_provenance(&q, &db).unwrap();
        // (bob, report).user is copied from BOTH UserGroup tuples for bob
        // (one witness via staff, one via dev).
        let locs = wp
            .locations_of(&tuple(["bob", "report"]), &"user".into())
            .unwrap();
        assert_eq!(locs.len(), 2);
        assert!(locs.contains(&src(&db, "UserGroup", &tuple(["bob", "staff"]), "user")));
        assert!(locs.contains(&src(&db, "UserGroup", &tuple(["bob", "dev"]), "user")));
        // (ann, report).file comes only from (staff, report).file.
        let locs = wp
            .locations_of(&tuple(["ann", "report"]), &"file".into())
            .unwrap();
        assert_eq!(locs.len(), 1);
        assert!(locs.contains(&src(&db, "GroupFile", &tuple(["staff", "report"]), "file")));
    }

    #[test]
    fn join_attribute_receives_from_both_sides() {
        let (_, db) = fixture();
        let q = parse_query("join(scan UserGroup, scan GroupFile)").unwrap();
        let wp = where_provenance(&q, &db).unwrap();
        let t = tuple(["ann", "staff", "report"]);
        let locs = wp.locations_of(&t, &"grp".into()).unwrap();
        assert_eq!(
            locs.len(),
            2,
            "shared attr gets annotations from both operands"
        );
        assert!(locs.contains(&src(&db, "UserGroup", &tuple(["ann", "staff"]), "grp")));
        assert!(locs.contains(&src(&db, "GroupFile", &tuple(["staff", "report"]), "grp")));
        // Non-shared attributes come from exactly one side.
        let locs = wp.locations_of(&t, &"user".into()).unwrap();
        assert_eq!(locs.len(), 1);
    }

    #[test]
    fn explicit_equality_does_not_transmit() {
        // The paper's example: σ_{A=B} does not copy annotations between A
        // and B even though they are equal in every surviving tuple.
        let db = parse_database("relation R(A, B) { (v, v), (v, w) }").unwrap();
        let q = parse_query("select(scan R, A = B)").unwrap();
        let wp = where_provenance(&q, &db).unwrap();
        let t = tuple(["v", "v"]);
        let a_locs = wp.locations_of(&t, &"A".into()).unwrap();
        let b_locs = wp.locations_of(&t, &"B".into()).unwrap();
        assert_eq!(a_locs.len(), 1);
        assert_eq!(b_locs.len(), 1);
        assert_ne!(a_locs, b_locs, "A and B keep distinct provenance");
    }

    #[test]
    fn union_merges_locations() {
        let db = parse_database(
            "relation R(A) { (v) }
             relation S(A) { (v), (w) }",
        )
        .unwrap();
        let q = parse_query("union(scan R, scan S)").unwrap();
        let wp = where_provenance(&q, &db).unwrap();
        let locs = wp.locations_of(&tuple(["v"]), &"A".into()).unwrap();
        assert_eq!(locs.len(), 2);
        let locs = wp.locations_of(&tuple(["w"]), &"A".into()).unwrap();
        assert_eq!(locs.len(), 1);
    }

    #[test]
    fn rename_carries_annotation_to_new_name() {
        let db = parse_database("relation R(A) { (v) }").unwrap();
        let q = parse_query("rename(scan R, {A -> X})").unwrap();
        let wp = where_provenance(&q, &db).unwrap();
        let locs = wp.locations_of(&tuple(["v"]), &"X".into()).unwrap();
        // The source location still names the ORIGINAL attribute A.
        assert_eq!(locs.iter().next().unwrap().attr, Attr::new("A"));
    }

    #[test]
    fn location_relation_and_reached_from_agree() {
        let (q, db) = fixture();
        let wp = where_provenance(&q, &db).unwrap();
        let rel = wp.location_relation();
        for tid in db.all_tids() {
            let r = db.get(tid.rel.as_str()).unwrap();
            for a in r.schema().attrs() {
                let s = SourceLoc::new(tid.clone(), a.clone());
                let reached = wp.reached_from(&s);
                let from_rel: BTreeSet<ViewLoc> = rel
                    .iter()
                    .filter(|(src, _)| src == &s)
                    .map(|(_, v)| v.clone())
                    .collect();
                assert_eq!(reached, from_rel);
            }
        }
    }

    #[test]
    fn constants_projected_away_leave_no_trace() {
        let (q, db) = fixture();
        let wp = where_provenance(&q, &db).unwrap();
        // No location of the view mentions a `grp` attribute source? They do
        // — through user/file only if grp were projected. Check that view
        // locations only reference existing source locations.
        for (_, sets) in wp.iter() {
            for set in sets {
                for loc in set {
                    assert!(loc.exists_in(&db));
                }
            }
        }
    }
}
