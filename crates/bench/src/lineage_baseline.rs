//! The Cui–Widom lineage baseline (\[14\] in the paper).
//!
//! \[14\] translates view deletions using **lineage** \[15\] "as a starting
//! point, to enumerate all candidate witnesses for a deletion": gather the
//! contributing source tuples, then search deletion candidates, checking
//! each by re-evaluating the view. The paper's §1 remark — "it is NP-hard to
//! find all witnesses for a tuple in the output" — is why this baseline
//! cannot beat the witness-hypergraph solvers; `report_table1` measures the
//! gap against `side_effect_free`.

use dap_core::{CoreError, Deletion, Result};
use dap_provenance::{lineage, lineage_support};
use dap_relalg::{eval, Database, Query, Tid, Tuple};
use std::collections::BTreeSet;

/// Decide side-effect-free deletability the lineage way: enumerate subsets
/// of the target's lineage in increasing size, re-evaluating the query for
/// each candidate. Returns a side-effect-free deletion if one exists.
pub fn side_effect_free_via_lineage(
    q: &Query,
    db: &Database,
    target: &Tuple,
) -> Result<Option<Deletion>> {
    let before = eval(q, db)?;
    if !before.contains(target) {
        return Err(CoreError::TargetNotInView {
            tuple: target.clone(),
        });
    }
    let pool: Vec<Tid> = {
        let l = lineage(q, db, target)?;
        lineage_support(&l).into_iter().collect()
    };
    // Breadth-first by subset size so the first hit is source-minimal among
    // side-effect-free deletions.
    for size in 1..=pool.len() {
        let mut indices: Vec<usize> = (0..size).collect();
        loop {
            let candidate: BTreeSet<Tid> = indices.iter().map(|&i| pool[i].clone()).collect();
            let after = eval(q, &db.without(&candidate))?;
            if !after.contains(target) && after.len() == before.len() - 1 {
                // Exactly the target disappeared (monotone queries cannot
                // gain tuples under deletion).
                return Ok(Some(Deletion {
                    deletions: candidate,
                    view_side_effects: BTreeSet::new(),
                }));
            }
            if !next_combination(&mut indices, pool.len()) {
                break;
            }
        }
    }
    Ok(None)
}

/// Advance `indices` to the next size-`|indices|` combination of
/// `0..n` in lexicographic order; `false` when exhausted.
fn next_combination(indices: &mut [usize], n: usize) -> bool {
    let k = indices.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if indices[i] != i + n - k {
            indices[i] += 1;
            for j in i + 1..k {
                indices[j] = indices[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_core::deletion::view_side_effect::{side_effect_free, ExactOptions};
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
    fn baseline_agrees_with_hypergraph_solver() {
        let (q, db) = usergroup();
        for t in eval(&q, &db).unwrap().tuples.clone() {
            let baseline = side_effect_free_via_lineage(&q, &db, &t).unwrap();
            let fast = side_effect_free(&q, &db, &t, &ExactOptions::default()).unwrap();
            assert_eq!(baseline.is_some(), fast.is_some(), "target {t}");
            if let Some(sol) = baseline {
                let after = eval(&q, &db.without(&sol.deletions)).unwrap();
                assert!(!after.contains(&t));
                assert_eq!(after.len(), eval(&q, &db).unwrap().len() - 1);
            }
        }
    }

    #[test]
    fn baseline_detects_impossibility() {
        let db = parse_database(
            "relation R1(A, B) { (a, x), (a2, x) }
             relation R2(B, C) { (x, c), (x, c2) }",
        )
        .unwrap();
        let q = parse_query("project(join(scan R1, scan R2), [A, C])").unwrap();
        let out = side_effect_free_via_lineage(&q, &db, &tuple(["a", "c"])).unwrap();
        assert!(out.is_none(), "every deletion has a side effect here");
    }

    #[test]
    fn baseline_errors_on_missing_target() {
        let (q, db) = usergroup();
        assert!(matches!(
            side_effect_free_via_lineage(&q, &db, &tuple(["zz", "zz"])),
            Err(CoreError::TargetNotInView { .. })
        ));
    }
}
