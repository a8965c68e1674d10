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
//! `why_provenance_legacy` (cargo feature `legacy-oracles`) preserves the
//! original standalone walk as the differential-test oracle.

use crate::engine::WitnessesAnn;
#[cfg(feature = "legacy-oracles")]
use crate::witness::minimize;
use crate::witness::Witness;
use dap_relalg::{eval_annotated, Database, Query, Result, Schema, Tuple};
#[cfg(feature = "legacy-oracles")]
use dap_relalg::{output_schema, Attr, Tid};
use std::collections::BTreeMap;
#[cfg(feature = "legacy-oracles")]
use std::collections::HashMap;

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

/// The original standalone witness walk, kept as the reference oracle for
/// the differential property tests (`tests/prop_provenance.rs`). Prefer
/// [`why_provenance`], which computes the same result on the shared engine.
#[cfg(feature = "legacy-oracles")]
pub fn why_provenance_legacy(q: &Query, db: &Database) -> Result<WhyProvenance> {
    let catalog = db.catalog();
    output_schema(q, &catalog)?;
    let (schema, map) = walk(q, db)?;
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

#[cfg(feature = "legacy-oracles")]
type AnnMap = BTreeMap<Tuple, Vec<Witness>>;

#[cfg(feature = "legacy-oracles")]
fn walk(q: &Query, db: &Database) -> Result<(Schema, AnnMap)> {
    match q {
        Query::Scan(rel) => {
            let r = db.require(rel)?;
            let map = r
                .tuples()
                .iter()
                .enumerate()
                .map(|(row, t)| {
                    let w: Witness = [Tid {
                        rel: r.name().clone(),
                        row,
                    }]
                    .into_iter()
                    .collect();
                    (t.clone(), vec![w])
                })
                .collect();
            Ok((r.schema().clone(), map))
        }
        Query::Select { input, pred } => {
            let (schema, map) = walk(input, db)?;
            let mut out = AnnMap::new();
            for (t, ws) in map {
                if pred.eval(&schema, &t)? {
                    out.insert(t, ws);
                }
            }
            Ok((schema, out))
        }
        Query::Project { input, attrs } => {
            let (schema, map) = walk(input, db)?;
            let out_schema = schema.project(attrs)?;
            let positions = schema.positions_of(attrs)?;
            let mut out = AnnMap::new();
            for (t, ws) in map {
                let key = t.project_positions(&positions);
                out.entry(key).or_default().extend(ws);
            }
            for ws in out.values_mut() {
                *ws = minimize(std::mem::take(ws));
            }
            Ok((out_schema, out))
        }
        Query::Join { left, right } => {
            let (ls, lmap) = walk(left, db)?;
            let (rs, rmap) = walk(right, db)?;
            let shared: Vec<Attr> = ls.shared_with(&rs);
            let out_schema = ls.join_with(&rs);
            let l_keys: Vec<usize> = shared
                .iter()
                .map(|a| ls.index_of(a).expect("shared"))
                .collect();
            let r_keys: Vec<usize> = shared
                .iter()
                .map(|a| rs.index_of(a).expect("shared"))
                .collect();
            let r_extra: Vec<usize> = rs
                .attrs()
                .iter()
                .enumerate()
                .filter(|(_, a)| !ls.contains(a))
                .map(|(i, _)| i)
                .collect();
            let mut table: HashMap<Vec<dap_relalg::Value>, Vec<(&Tuple, &Vec<Witness>)>> =
                HashMap::with_capacity(rmap.len());
            for (t, ws) in &rmap {
                let key = r_keys.iter().map(|&i| t.get(i).clone()).collect::<Vec<_>>();
                table.entry(key).or_default().push((t, ws));
            }
            let mut out = AnnMap::new();
            for (lt, lws) in &lmap {
                let key = l_keys
                    .iter()
                    .map(|&i| lt.get(i).clone())
                    .collect::<Vec<_>>();
                let Some(matches) = table.get(&key) else {
                    continue;
                };
                for (rt, rws) in matches {
                    let joined = lt.join_concat(rt, &r_extra);
                    let combined: Vec<Witness> = lws
                        .iter()
                        .flat_map(|lw| {
                            rws.iter().map(move |rw| {
                                lw.iter().cloned().chain(rw.iter().cloned()).collect()
                            })
                        })
                        .collect();
                    out.entry(joined).or_default().extend(combined);
                }
            }
            for ws in out.values_mut() {
                *ws = minimize(std::mem::take(ws));
            }
            Ok((out_schema, out))
        }
        Query::Union { left, right } => {
            let (ls, lmap) = walk(left, db)?;
            let (rs, rmap) = walk(right, db)?;
            let positions = rs.positions_of(ls.attrs())?;
            let mut out = lmap;
            for (t, ws) in rmap {
                let aligned = t.project_positions(&positions);
                out.entry(aligned).or_default().extend(ws);
            }
            for ws in out.values_mut() {
                *ws = minimize(std::mem::take(ws));
            }
            Ok((ls, out))
        }
        Query::Rename { input, mapping } => {
            let (schema, map) = walk(input, db)?;
            Ok((schema.rename(mapping)?, map))
        }
    }
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
