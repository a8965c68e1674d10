//! Key-constrained PJ queries — the §2.1.1 escape hatch.
//!
//! "Fortunately, most joins are performed on foreign keys. It is easy to
//! show that project join queries based on key constraints (e.g. lossless
//! joins with respect to a set of functional dependencies) allow us to
//! decide whether there is a side-effect-free deletion in polynomial time."
//!
//! The precise condition this module uses: in every normal-form branch, the
//! projected attributes functionally determine the whole join under the
//! declared FDs ([`dap_relalg::projection_determines_join`]). Then every
//! output tuple has exactly **one** witness per branch — the witness
//! hypergraph degenerates to the SJ case of Theorems 2.4/2.9, and both
//! deletion problems become polynomial:
//!
//! * the why-provenance computation itself stays polynomial (witness sets
//!   never multiply), and
//! * the component-scan algorithm applies unchanged.

use crate::deletion::source_side_effect::min_source_deletion_on;
use crate::deletion::view_side_effect::{min_view_side_effects_on, ExactOptions};
use crate::deletion::{Deletion, DeletionContext, DeletionInstance, WitnessIndex};
use crate::error::{CoreError, Result};
use dap_relalg::{normalize, projection_determines_join, Database, FdCatalog, Query, Tuple};

/// Whether the declared FDs make `q` witness-unique per branch (the keyed
/// poly-time condition). Also validates that the FDs hold on `db`.
pub fn is_keyed(q: &Query, db: &Database, fds: &FdCatalog) -> Result<bool> {
    Ok(keyed_branches(q, db, fds)?.is_some())
}

/// The number of normal-form branches if `q` is keyed under `fds` (each
/// output tuple then has at most that many witnesses), `None` otherwise.
fn keyed_branches(q: &Query, db: &Database, fds: &FdCatalog) -> Result<Option<usize>> {
    if fds.validate(db).is_err() {
        return Ok(None);
    }
    let nf = normalize(q, &db.catalog())?;
    let keyed = nf
        .branches
        .iter()
        .all(|b| projection_determines_join(b, fds));
    Ok(keyed.then_some(nf.branches.len()))
}

/// Polynomial minimum-view-side-effect deletion for keyed queries.
/// Errors with [`CoreError::WrongClass`] if the FD condition does not hold
/// (use the exact solver then).
pub fn keyed_view_deletion(
    q: &Query,
    db: &Database,
    fds: &FdCatalog,
    target: &Tuple,
) -> Result<Deletion> {
    let (inst, mut idx) = keyed_instance(q, db, fds, target)?;
    // With one witness per (tuple, branch) the exact search is polynomial:
    // the branching factor is the witness size and no subset explosion can
    // occur. Run it with a budget that certifies polynomial behaviour.
    let witnesses = inst.target_witnesses.len();
    let support = inst.support.len();
    let budget = (witnesses.max(1) * support.max(1) * 8 + 64) as u64;
    let sol = min_view_side_effects_on(
        &mut idx,
        &ExactOptions {
            node_budget: budget,
        },
    );
    match sol {
        Err(CoreError::BudgetExhausted { .. }) => {
            unreachable!("keyed instances have ≤ one witness per branch; the search is polynomial")
        }
        other => other,
    }
}

/// Polynomial minimum source deletion for keyed queries: hit one tuple per
/// (per-branch unique) witness; the greedy choice is optimal because the
/// witnesses are the only sets to hit and they are few.
pub fn keyed_source_deletion(
    q: &Query,
    db: &Database,
    fds: &FdCatalog,
    target: &Tuple,
) -> Result<Deletion> {
    let (_, mut idx) = keyed_instance(q, db, fds, target)?;
    // The witness count is at most the number of branches — tiny — so the
    // exact hitting-set solver runs in polynomial time here.
    min_source_deletion_on(&mut idx, &ExactOptions::default())
}

/// Decide side-effect-freeness for keyed queries in polynomial time
/// (the claim of §2.1.1).
pub fn keyed_side_effect_free(
    q: &Query,
    db: &Database,
    fds: &FdCatalog,
    target: &Tuple,
) -> Result<Option<Deletion>> {
    let sol = keyed_view_deletion(q, db, fds, target)?;
    Ok(sol.is_side_effect_free().then_some(sol))
}

/// Check the keyed condition once and stamp the target's instance and
/// index from one [`DeletionContext`] (one evaluation of the query).
fn keyed_instance(
    q: &Query,
    db: &Database,
    fds: &FdCatalog,
    target: &Tuple,
) -> Result<(DeletionInstance, WitnessIndex)> {
    let Some(branches) = keyed_branches(q, db, fds)? else {
        return Err(CoreError::WrongClass {
            expected: "keyed PJ (projection determines the join under the FDs)",
            found: format!("{}", dap_relalg::OpFootprint::of(q)),
        });
    };
    let (inst, idx) = DeletionContext::new(q, db)?.instance_and_index(target)?;
    // The FD condition caps witnesses at one per branch.
    debug_assert!(
        inst.target_witnesses.len() <= branches,
        "keyed queries have at most one witness per branch"
    );
    Ok((inst, idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deletion::view_side_effect::min_view_side_effects;
    use dap_relalg::{parse_database, parse_query, tuple};

    fn fk_db() -> (Database, FdCatalog) {
        let db = parse_database(
            "relation Emp(eid, dept) { (e1, sales), (e2, sales), (e3, eng) }
             relation Dept(dept, mgr) { (sales, ann), (eng, bob) }",
        )
        .unwrap();
        let mut fds = FdCatalog::new();
        fds.add_key(&db, "Emp", &["eid"]);
        fds.add_key(&db, "Dept", &["dept"]);
        (db, fds)
    }

    #[test]
    fn keyed_condition_detected() {
        let (db, fds) = fk_db();
        let keyed = parse_query("project(join(scan Emp, scan Dept), [eid, mgr])").unwrap();
        assert!(is_keyed(&keyed, &db, &fds).unwrap());
        let unkeyed = parse_query("project(join(scan Emp, scan Dept), [mgr])").unwrap();
        assert!(!is_keyed(&unkeyed, &db, &fds).unwrap());
        // No FDs declared → not keyed.
        assert!(!is_keyed(&keyed, &db, &FdCatalog::new()).unwrap());
    }

    #[test]
    fn keyed_view_deletion_matches_exact() {
        let (db, fds) = fk_db();
        let q = parse_query("project(join(scan Emp, scan Dept), [eid, mgr])").unwrap();
        let view = dap_relalg::eval(&q, &db).unwrap();
        for t in &view.tuples {
            let keyed = keyed_view_deletion(&q, &db, &fds, t).unwrap();
            let exact = min_view_side_effects(&q, &db, t, &ExactOptions::default()).unwrap();
            assert_eq!(keyed.view_cost(), exact.view_cost(), "target {t}");
            let inst = DeletionInstance::build(&q, &db, t).unwrap();
            assert!(inst.deletes_target(&keyed.deletions));
        }
    }

    #[test]
    fn unique_witness_structure() {
        let (db, _) = fk_db();
        let q = parse_query("project(join(scan Emp, scan Dept), [eid, mgr])").unwrap();
        let t = tuple(["e1", "ann"]);
        let inst = DeletionInstance::build(&q, &db, &t).unwrap();
        assert_eq!(
            inst.target_witnesses.len(),
            1,
            "key joins give single witnesses"
        );
        assert_eq!(inst.target_witnesses[0].len(), 2);
    }

    #[test]
    fn keyed_side_effect_free_decision() {
        let (db, fds) = fk_db();
        let q = parse_query("project(join(scan Emp, scan Dept), [eid, mgr])").unwrap();
        // (e3, bob): e3 is the only eng employee — deleting Emp(e3, eng) is
        // side-effect-free.
        let sol = keyed_side_effect_free(&q, &db, &fds, &tuple(["e3", "bob"])).unwrap();
        assert!(sol.is_some());
        // (e1, ann): deleting Emp(e1,sales) is side-effect-free too (e2
        // still reaches ann through its own row).
        let sol = keyed_side_effect_free(&q, &db, &fds, &tuple(["e1", "ann"])).unwrap();
        assert!(sol.is_some());
    }

    #[test]
    fn keyed_source_deletion_is_single_tuple() {
        let (db, fds) = fk_db();
        let q = parse_query("project(join(scan Emp, scan Dept), [eid, mgr])").unwrap();
        let sol = keyed_source_deletion(&q, &db, &fds, &tuple(["e1", "ann"])).unwrap();
        assert_eq!(
            sol.source_cost(),
            1,
            "single witness → delete one component"
        );
    }

    #[test]
    fn rejects_unkeyed_queries() {
        let (db, fds) = fk_db();
        let q = parse_query("project(join(scan Emp, scan Dept), [mgr])").unwrap();
        assert!(matches!(
            keyed_view_deletion(&q, &db, &fds, &tuple(["ann"])),
            Err(CoreError::WrongClass { .. })
        ));
    }

    #[test]
    fn violated_fds_disable_the_fast_path() {
        let (db, mut fds) = fk_db();
        // Declare a bogus key that the instance violates.
        fds.add("Emp", dap_relalg::Fd::new(["dept"], ["eid"]));
        let q = parse_query("project(join(scan Emp, scan Dept), [eid, mgr])").unwrap();
        assert!(!is_keyed(&q, &db, &fds).unwrap());
    }
}
