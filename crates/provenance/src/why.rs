//! Why-provenance: the minimal-witness basis of every output tuple.
//!
//! This is the form of provenance the paper identifies with the **deletion**
//! problem (Section 1 and \[7\]): an output tuple survives a source deletion
//! `T` iff at least one of its minimal witnesses is disjoint from `T`.
//!
//! The computation runs on the generic annotated evaluator
//! ([`dap_relalg::eval_annotated`]) with the [`WitnessesAnn`] instance:
//! witness sets propagate through each operator and only inclusion-minimal
//! sets survive each step (sound for monotone queries — see the module
//! tests, which cross-check against brute-force witness verification).
//! The original standalone walk is the differential-test oracle in
//! `tests/support/legacy_walks.rs`.

use crate::engine::WitnessesAnn;
use crate::witness::Witness;
use dap_relalg::{eval_annotated, Database, Query, Result, Schema, Tuple};
use std::collections::BTreeMap;

/// The why-provenance of a whole view: for each output tuple, its minimal
/// witnesses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WhyProvenance {
    /// The view's schema.
    pub schema: Schema,
    map: BTreeMap<Tuple, Vec<Witness>>,
}

impl WhyProvenance {
    /// The output tuples, in sorted order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.map.keys()
    }

    /// Iterate over `(tuple, minimal witnesses)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &[Witness])> {
        self.map.iter().map(|(t, ws)| (t, ws.as_slice()))
    }

    /// The minimal witnesses of `t`, if `t` is in the view.
    pub fn witnesses_of(&self, t: &Tuple) -> Option<&[Witness]> {
        self.map.get(t).map(Vec::as_slice)
    }

    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total number of minimal witnesses across all output tuples (a size
    /// measure used by the benches).
    pub fn total_witnesses(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Assemble from precomputed `(tuple, minimal witnesses)` rows — the
    /// path a maintained `PlanRegistry<WitnessesAnn>` view uses to expose
    /// its current output as a [`WhyProvenance`] without re-evaluating.
    pub fn from_parts(
        schema: Schema,
        rows: impl IntoIterator<Item = (Tuple, Vec<Witness>)>,
    ) -> WhyProvenance {
        WhyProvenance {
            schema,
            map: rows.into_iter().collect(),
        }
    }

    /// Drop `t` from the view (a deletion side effect). Returns whether it
    /// was present.
    pub fn remove_tuple(&mut self, t: &Tuple) -> bool {
        self.map.remove(t).is_some()
    }

    /// Replace (or insert) the minimal witness basis of `t` — the patch a
    /// source deletion applies when some but not all of `t`'s derivations
    /// died.
    pub fn set_witnesses(&mut self, t: &Tuple, ws: Vec<Witness>) {
        self.map.insert(t.clone(), ws);
    }
}

/// Compute the why-provenance (minimal witness basis) of every output tuple
/// of `q` on `db`, in one pass of the generic annotated evaluator.
pub fn why_provenance(q: &Query, db: &Database) -> Result<WhyProvenance> {
    let (schema, tuples, annots) = eval_annotated::<WitnessesAnn>(q, db)?.into_parts();
    let map = tuples
        .into_iter()
        .zip(annots.into_iter().map(|a| a.0))
        .collect();
    Ok(WhyProvenance { schema, map })
}

/// The minimal witnesses of a single output tuple (empty if `t` is not in
/// the view).
pub fn minimal_witnesses(q: &Query, db: &Database, t: &Tuple) -> Result<Vec<Witness>> {
    Ok(why_provenance(q, db)?
        .witnesses_of(t)
        .map(<[Witness]>::to_vec)
        .unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::{is_minimal_witness, is_sufficient};
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

    #[test]
    fn tuples_match_plain_eval() {
        let (q, db) = fixture();
        let why = why_provenance(&q, &db).unwrap();
        let plain = eval(&q, &db).unwrap();
        let why_tuples: Vec<_> = why.tuples().cloned().collect();
        assert_eq!(why_tuples, plain.tuples);
        assert_eq!(why.schema, plain.schema);
    }

    #[test]
    fn projection_merges_witnesses() {
        let (q, db) = fixture();
        let why = why_provenance(&q, &db).unwrap();
        // (bob, report) derives via staff AND via dev: two minimal witnesses.
        let ws = why.witnesses_of(&tuple(["bob", "report"])).unwrap();
        assert_eq!(ws.len(), 2);
        // (ann, report) has exactly one.
        let ws = why.witnesses_of(&tuple(["ann", "report"])).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].len(), 2, "a join witness has one tuple per relation");
    }

    #[test]
    fn every_reported_witness_is_minimal_and_sufficient() {
        let (q, db) = fixture();
        let why = why_provenance(&q, &db).unwrap();
        for (t, ws) in why.iter() {
            assert!(!ws.is_empty());
            for w in ws {
                assert!(
                    is_sufficient(&q, &db, w, t).unwrap(),
                    "witness {w:?} for {t}"
                );
                assert!(
                    is_minimal_witness(&q, &db, w, t).unwrap(),
                    "minimality of {w:?} for {t}"
                );
            }
        }
    }

    #[test]
    fn scan_witnesses_are_singletons() {
        let (_, db) = fixture();
        let q = Query::scan("UserGroup");
        let why = why_provenance(&q, &db).unwrap();
        for (_, ws) in why.iter() {
            assert_eq!(ws.len(), 1);
            assert_eq!(ws[0].len(), 1);
        }
    }

    #[test]
    fn union_merges_across_branches() {
        let db = parse_database(
            "relation R(A) { (v), (w) }
             relation S(A) { (v) }",
        )
        .unwrap();
        let q = parse_query("union(scan R, scan S)").unwrap();
        let why = why_provenance(&q, &db).unwrap();
        // (v) has two singleton witnesses: one from R, one from S.
        assert_eq!(why.witnesses_of(&tuple(["v"])).unwrap().len(), 2);
        assert_eq!(why.witnesses_of(&tuple(["w"])).unwrap().len(), 1);
    }

    #[test]
    fn self_join_witnesses_stay_minimal() {
        let db = parse_database("relation R(A, B) { (a, b1), (a, b2) }").unwrap();
        // Π_A(R) ⋈ R: each output tuple's witness should not need both rows.
        let q = Query::scan("R").project(["A"]).join(Query::scan("R"));
        let why = why_provenance(&q, &db).unwrap();
        for (t, ws) in why.iter() {
            for w in ws {
                assert!(is_minimal_witness(&q, &db, w, t).unwrap());
            }
        }
        // (a,b1): {R#0} alone suffices (it matches itself through Π_A).
        let ws = why.witnesses_of(&tuple(["a", "b1"])).unwrap();
        assert_eq!(ws.iter().map(|w| w.len()).min(), Some(1));
    }

    #[test]
    fn select_filters_witness_map() {
        let (_, db) = fixture();
        let q = parse_query("select(scan UserGroup, user = 'bob')").unwrap();
        let why = why_provenance(&q, &db).unwrap();
        assert_eq!(why.len(), 2);
        assert!(why.witnesses_of(&tuple(["ann", "staff"])).is_none());
    }

    #[test]
    fn rename_keeps_witnesses() {
        let (_, db) = fixture();
        let q = parse_query("rename(scan UserGroup, {user -> member})").unwrap();
        let why = why_provenance(&q, &db).unwrap();
        assert_eq!(why.len(), 3);
        assert!(why.schema.contains(&"member".into()));
    }

    #[test]
    fn missing_tuple_has_no_witnesses() {
        let (q, db) = fixture();
        assert!(minimal_witnesses(&q, &db, &tuple(["zz", "zz"]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn total_witnesses_counts() {
        let (q, db) = fixture();
        let why = why_provenance(&q, &db).unwrap();
        // ann/report:1, bob/report:2, bob/main:1 → 4.
        assert_eq!(why.total_witnesses(), 4);
    }
}
