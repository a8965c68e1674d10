//! Cui–Widom-style lineage — the related-work baseline (\[14, 15\] in the
//! paper).
//!
//! The lineage of an output tuple `t` is, per source relation, the set of
//! tuples that participate in *some* derivation of `t`. For the monotone
//! fragment this is exactly the union of `t`'s minimal witnesses, grouped by
//! relation. The paper's Section 1 notes that \[14\] uses lineage "as a
//! starting point, to enumerate all candidate witnesses for a deletion" —
//! `dap_bench::lineage_baseline` implements that enumeration as the
//! baseline `report_table1` times against the witness-hypergraph solver.

use crate::engine::LineageAnn;
use crate::why::{why_provenance, WhyProvenance};
use crate::witness::Witness;
use dap_relalg::{eval_annotated, Database, Query, RelName, Result, Tid, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// Per-relation contributing tuples for one output tuple.
pub type Lineage = BTreeMap<RelName, BTreeSet<Tid>>;

/// Compute the lineage of `t` (empty if `t` is not in the view).
pub fn lineage(q: &Query, db: &Database, t: &Tuple) -> Result<Lineage> {
    let why = why_provenance(q, db)?;
    Ok(lineage_from_why(&why, t))
}

/// Lineage extracted from an already-computed why-provenance.
pub fn lineage_from_why(why: &WhyProvenance, t: &Tuple) -> Lineage {
    let mut out = Lineage::new();
    if let Some(witnesses) = why.witnesses_of(t) {
        for w in witnesses {
            for tid in w {
                out.entry(tid.rel.clone()).or_default().insert(tid.clone());
            }
        }
    }
    out
}

/// Flatten a lineage into a single tuple-id set — the candidate pool for
/// deletion search.
pub fn lineage_support(l: &Lineage) -> BTreeSet<Tid> {
    l.values().flatten().cloned().collect()
}

/// The **participation lineage** of every output tuple, computed in one pass
/// of the generic annotated evaluator (the `TidSet` instance): all source
/// tuples appearing in *some* derivation, minimal or not. This is Cui–Widom
/// lineage proper and equals the variable set of the tuple's Boolean
/// lineage expression; it is a superset of [`lineage_support`] of the
/// minimal-witness lineage (strictly larger exactly when a tuple
/// participates only in non-minimal derivations, e.g. through self-joins).
pub fn participating_tids(q: &Query, db: &Database) -> Result<BTreeMap<Tuple, BTreeSet<Tid>>> {
    let (_, tuples, annots) = eval_annotated::<LineageAnn>(q, db)?.into_parts();
    Ok(tuples
        .into_iter()
        .zip(annots.into_iter().map(|a| a.0))
        .collect())
}

/// The size of a lineage (total contributing tuples across relations).
pub fn lineage_size(l: &Lineage) -> usize {
    l.values().map(BTreeSet::len).sum()
}

/// All witnesses (not only minimal ones) contained in the lineage candidate
/// pool, enumerated the way the lineage-based baseline of \[14\] does:
/// try every subset of the per-relation lineage with one pick per relation
/// listed in `shape`. Only meaningful for single-branch join queries, where
/// a witness takes exactly one tuple from each joined relation; for other
/// shapes fall back to the minimal witness basis.
pub fn enumerate_join_witnesses(l: &Lineage, shape: &[RelName]) -> Vec<Witness> {
    // Cartesian product over the per-relation candidate sets.
    let pools: Vec<Vec<&Tid>> = shape
        .iter()
        .map(|r| l.get(r).map(|s| s.iter().collect()).unwrap_or_default())
        .collect();
    if pools.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut indices = vec![0usize; pools.len()];
    loop {
        let witness: Witness = indices
            .iter()
            .zip(&pools)
            .map(|(&i, pool)| pool[i].clone())
            .collect();
        out.push(witness);
        // Advance the mixed-radix counter.
        let mut k = 0;
        loop {
            if k == pools.len() {
                return out;
            }
            indices[k] += 1;
            if indices[k] < pools[k].len() {
                break;
            }
            indices[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_relalg::{parse_database, parse_query, tuple};

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
    fn lineage_groups_by_relation() {
        let (q, db) = fixture();
        let l = lineage(&q, &db, &tuple(["bob", "report"])).unwrap();
        assert_eq!(l.len(), 2);
        // bob/report derives from two UserGroup tuples and two GroupFile
        // tuples.
        assert_eq!(l.get("UserGroup").map(BTreeSet::len), Some(2));
        assert_eq!(l.get("GroupFile").map(BTreeSet::len), Some(2));
        assert_eq!(lineage_size(&l), 4);
        assert_eq!(lineage_support(&l).len(), 4);
    }

    #[test]
    fn lineage_of_missing_tuple_is_empty() {
        let (q, db) = fixture();
        let l = lineage(&q, &db, &tuple(["zz", "zz"])).unwrap();
        assert!(l.is_empty());
        assert_eq!(lineage_size(&l), 0);
    }

    #[test]
    fn single_witness_tuple_has_minimal_lineage() {
        let (q, db) = fixture();
        let l = lineage(&q, &db, &tuple(["ann", "report"])).unwrap();
        assert_eq!(lineage_size(&l), 2);
    }

    #[test]
    fn enumerate_join_witnesses_is_cartesian() {
        let (q, db) = fixture();
        let l = lineage(&q, &db, &tuple(["bob", "report"])).unwrap();
        let shape = vec![RelName::new("UserGroup"), RelName::new("GroupFile")];
        let candidates = enumerate_join_witnesses(&l, &shape);
        // 2 × 2 candidate combinations; only some are real witnesses — the
        // baseline has to test each, which is its cost.
        assert_eq!(candidates.len(), 4);
        let real: Vec<_> = candidates
            .iter()
            .filter(|w| {
                crate::witness::is_sufficient(&q, &db, w, &tuple(["bob", "report"])).unwrap()
            })
            .collect();
        assert_eq!(real.len(), 2);
    }

    #[test]
    fn enumerate_with_missing_relation_is_empty() {
        let (q, db) = fixture();
        let l = lineage(&q, &db, &tuple(["ann", "report"])).unwrap();
        let shape = vec![RelName::new("UserGroup"), RelName::new("Nope")];
        assert!(enumerate_join_witnesses(&l, &shape).is_empty());
    }
}
