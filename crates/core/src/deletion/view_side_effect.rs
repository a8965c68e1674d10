//! The **view side-effect problem** (§2.1): delete `t` from the view while
//! killing as few other view tuples as possible.
//!
//! * For arbitrary monotone queries the problem is NP-hard (Thms 2.1, 2.2) —
//!   [`min_view_side_effects`] is an exact branch-and-bound that enumerates
//!   minimal hitting sets of the target's witness hypergraph, pruning with
//!   the (monotone) side-effect count. The search mutates a
//!   [`WitnessIndex`] along the recursion (insert on descend, remove on
//!   backtrack), so each node costs `O(occurrences of the branched tid)`
//!   instead of a full hypergraph rescan, and branch choices are ordered by
//!   their `O(occ)` incremental side-effect delta (fail-first on cost).
//!   The search runs on the calling thread: a solve is one engine turn,
//!   and turns are sequential.
//! * [`side_effect_free`] decides the paper's headline question — "is there
//!   a side-effect-free deletion?" — by running the same search capped at
//!   zero side effects.
//! * [`spu_view_deletion`] (Thm 2.3) and [`sj_view_deletion`] (Thm 2.4) are
//!   the polynomial algorithms for the tractable classes.
//!
//! The SPU, SJ and exact arms are each one function of a
//! [`WitnessIndex`], shared by [`DeletionContext::solve`] (which routes
//! each solve by class, on the target's cached index) and the uncached
//! `&self` methods ([`DeletionContext::min_view_side_effects`],
//! [`DeletionContext::spu_view_deletion`]), which stamp a fresh index.
//!
//! The differential property tests pin the search against a rescan
//! oracle (`tests/support/naive_search.rs`) that re-implements the same
//! traversal over per-node [`DeletionInstance::side_effect_count`]
//! rescans: same witness choice, same branch order, same exclusions and
//! bound, hence **identical** solutions.

use crate::deletion::index::WitnessIndex;
use crate::deletion::{Deletion, DeletionContext, DeletionInstance};
use crate::error::{CoreError, Result};
use dap_relalg::{normalize, output_schema, Database, OpFootprint, Query, Tid, Tuple};
use std::collections::BTreeSet;

/// Knobs for the exact exponential searches (also the ILP's, as
/// [`crate::IlpOptions`]).
#[derive(Clone, Copy, Debug)]
pub struct ExactOptions {
    /// Abort with [`CoreError::BudgetExhausted`] after this many search
    /// nodes. The NP-hard instances grow exponentially; the bound applies
    /// to both exact arms [`DeletionContext::solve`] can reach (the view
    /// branch-and-bound and the source hitting-set search) and to the
    /// ILP's branch-and-bound. Defaults to unlimited.
    pub node_budget: u64,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            node_budget: u64::MAX,
        }
    }
}

/// Find a deletion for `target` minimizing the number of other view tuples
/// lost. Exact for every monotone SPJRU query; exponential time in the worst
/// case (the problem is NP-hard for PJ and JU queries).
///
/// Solves one target; to solve many targets over the same `(Q, S)`, build a
/// [`DeletionContext`] once and call
/// [`DeletionContext::min_view_side_effects`] per target.
pub fn min_view_side_effects(
    q: &Query,
    db: &Database,
    target: &Tuple,
    opts: &ExactOptions,
) -> Result<Deletion> {
    DeletionContext::new(q, db)?.min_view_side_effects(target, opts)
}

/// [`min_view_side_effects`] on a prebuilt index: runs the incremental
/// branch-and-bound on `idx` (which must be freshly built for its target —
/// no tuples inserted) and leaves it in that clean state on success, so
/// callers can reuse one index across solves. After a
/// [`CoreError::BudgetExhausted`] abort the index holds the partial
/// deletion set of the interrupted node and should be discarded.
pub fn min_view_side_effects_on(idx: &mut WitnessIndex, opts: &ExactOptions) -> Result<Deletion> {
    debug_assert_eq!(idx.deleted_len(), 0, "index must start empty");
    let found = run_search(idx, usize::MAX, opts)?;
    let (deletions, _) = found.expect("a hitting set always exists (delete the whole support)");
    let slots: Vec<usize> = deletions
        .iter()
        .map(|tid| idx.slot_of(tid).expect("solutions lie in the support"))
        .collect();
    Ok(idx.deletion_of(slots.iter().copied()))
}

/// Decide whether a **side-effect-free** deletion exists (the paper's §2.1
/// dichotomy question), returning one if so.
pub fn side_effect_free(
    q: &Query,
    db: &Database,
    target: &Tuple,
    opts: &ExactOptions,
) -> Result<Option<Deletion>> {
    DeletionContext::new(q, db)?.side_effect_free(target, opts)
}

impl DeletionContext {
    /// [`min_view_side_effects`] against this context's shared provenance:
    /// stamps out the target's instance and frontier index, then runs the
    /// incremental branch-and-bound.
    pub fn min_view_side_effects(&self, target: &Tuple, opts: &ExactOptions) -> Result<Deletion> {
        let (_, mut idx) = self.instance_and_index(target)?;
        min_view_side_effects_on(&mut idx, opts)
    }

    /// Theorem 2.3 over the maintained context, with no search and no
    /// union-normal-form pass: the SPU arm of [`DeletionContext::solve`]
    /// on a freshly stamped index. The caller guarantees the SPU class;
    /// the free [`spu_view_deletion`] remains the from-scratch entry point.
    pub fn spu_view_deletion(&self, target: &Tuple) -> Result<Deletion> {
        let (_, mut idx) = self.instance_and_index(target)?;
        Ok(spu_on(&mut idx))
    }

    /// [`side_effect_free`] against this context's shared provenance.
    pub fn side_effect_free(
        &self,
        target: &Tuple,
        opts: &ExactOptions,
    ) -> Result<Option<Deletion>> {
        let (_, mut idx) = self.instance_and_index(target)?;
        // Cap 1: only solutions with < 1 side effects qualify.
        let found = run_search(&mut idx, 1, opts)?;
        Ok(found.map(|(deletions, _)| Deletion {
            deletions,
            view_side_effects: BTreeSet::new(),
        }))
    }
}

/// Bookkeeping shared by every node of one search.
struct SearchCtx {
    nodes: u64,
    budget: u64,
    best: Option<(BTreeSet<Tid>, usize)>,
    bound: usize,
}

/// Branch-and-bound over (minimal) hitting sets of the target's witnesses.
/// Returns the best solution with side-effect count `< cap`, or `None`.
fn run_search(
    idx: &mut WitnessIndex,
    cap: usize,
    opts: &ExactOptions,
) -> Result<Option<(BTreeSet<Tid>, usize)>> {
    let mut ctx = SearchCtx {
        nodes: 0,
        budget: opts.node_budget,
        best: None,
        bound: cap,
    };
    let mut excluded = vec![false; idx.support().len()];
    recurse(idx, &mut ctx, &mut excluded)?;
    Ok(ctx.best)
}

fn recurse(idx: &mut WitnessIndex, ctx: &mut SearchCtx, excluded: &mut [bool]) -> Result<()> {
    ctx.nodes += 1;
    if ctx.nodes > ctx.budget {
        return Err(CoreError::BudgetExhausted { budget: ctx.budget });
    }
    // Side effects only grow as the deletion set grows — prune at the bound.
    let se = idx.side_effect_count();
    if se >= ctx.bound {
        return Ok(());
    }
    // Pick the unhit witness with the fewest available choices (fail-first
    // on width); `None` means the current set is already a hitting set.
    let Some((_, wi)) = pick_witness(idx, excluded) else {
        ctx.best = Some((idx.deleted_tids(), se));
        ctx.bound = se; // future solutions must be strictly better
        return Ok(());
    };
    // Order the branch choices by their incremental side-effect delta —
    // fail-first on *cost*: cheap branches first tighten the bound early.
    let members: Vec<usize> = idx.target_witness_members(wi).to_vec();
    let mut choices: Vec<(usize, usize)> = members
        .into_iter()
        .filter(|&s| !excluded[s])
        .map(|s| (idx.delta_if_deleted(s), s))
        .collect();
    choices.sort_unstable();
    let mut locally_excluded = Vec::new();
    for (_, slot) in choices {
        idx.insert_slot(slot);
        recurse(idx, ctx, excluded)?;
        idx.remove_slot(slot);
        // Standard minimal-hitting-set enumeration: once a branch for
        // `slot` is fully explored, later siblings must not use it.
        excluded[slot] = true;
        locally_excluded.push(slot);
        if ctx.bound == 0 {
            break; // cannot beat a perfect solution
        }
    }
    for slot in locally_excluded {
        excluded[slot] = false;
    }
    Ok(())
}

/// The fail-first branching choice of [`recurse`]: the unhit target
/// witness with the fewest non-excluded member slots, as
/// `(available, witness)`.
fn pick_witness(idx: &WitnessIndex, excluded: &[bool]) -> Option<(usize, usize)> {
    let mut pick: Option<(usize, usize)> = None;
    for wi in 0..idx.target_witness_count() {
        if idx.target_witness_hit(wi) {
            continue;
        }
        let avail = idx
            .target_witness_members(wi)
            .iter()
            .filter(|&&s| !excluded[s])
            .count();
        if pick.is_none_or(|(a, _)| avail < a) {
            pick = Some((avail, wi));
        }
    }
    pick
}

/// Theorem 2.3 on an index: for SPU queries every witness is a single
/// source tuple, so the unique minimal deletion is the target's whole
/// support. Reads the side effects off the counters (so a mis-routed
/// class still returns the truth) and leaves the index clean.
pub(crate) fn spu_on(idx: &mut WitnessIndex) -> Deletion {
    debug_assert!(
        (0..idx.target_witness_count()).all(|i| idx.target_witness_members(i).len() == 1),
        "SPU witnesses are singletons"
    );
    idx.deletion_of(0..idx.support().len())
}

/// Theorem 2.3: for SPU queries (select/project/union, no join, no rename)
/// there is a **unique** minimal deletion and it is always side-effect-free:
/// delete every source tuple that produces `t` through any branch.
/// Runs in linear time via the union normal form — no provenance index.
pub fn spu_view_deletion(q: &Query, db: &Database, target: &Tuple) -> Result<Deletion> {
    let fp = OpFootprint::of(q);
    if fp.join || fp.rename {
        return Err(CoreError::WrongClass {
            expected: "SPU (join-free, rename-free)",
            found: fp.letters(),
        });
    }
    let catalog = db.catalog();
    let out_schema = output_schema(q, &catalog)?;
    let nf = normalize(q, &catalog)?;
    let mut deletions = BTreeSet::new();
    for branch in &nf.branches {
        debug_assert_eq!(branch.scans.len(), 1, "join-free branches have one scan");
        let scan = &branch.scans[0];
        let rel = db.require(&scan.rel)?;
        // No joins and no renames ⇒ current names equal original names.
        let schema = rel.schema();
        // For each output attribute, its position in the scanned relation.
        let positions = schema.positions_of(out_schema.attrs())?;
        for (row, u) in rel.tuples().iter().enumerate() {
            if branch.pred.eval(schema, u)? && &u.project_positions(&positions) == target {
                deletions.insert(Tid {
                    rel: rel.name().clone(),
                    row,
                });
            }
        }
    }
    if deletions.is_empty() {
        return Err(CoreError::TargetNotInView {
            tuple: target.clone(),
        });
    }
    // Theorem 2.3 guarantees no side effects; the cross-check lives in the
    // module tests (agreement with the exact solver and re-evaluation).
    Ok(Deletion {
        deletions,
        view_side_effects: BTreeSet::new(),
    })
}

/// Theorem 2.4: for SJ queries every view tuple has a **single** witness
/// (one source tuple per joined relation). The minimum-view-side-effect
/// deletion removes the witness component shared with the fewest other view
/// tuples; it is side-effect-free iff some component appears in no other
/// witness.
pub fn sj_view_deletion(q: &Query, db: &Database, target: &Tuple) -> Result<Deletion> {
    let fp = OpFootprint::of(q);
    if fp.project || fp.union_ {
        return Err(CoreError::WrongClass {
            expected: "SJ (projection-free, union-free)",
            found: fp.letters(),
        });
    }
    let inst = DeletionInstance::build(q, db, target)?;
    Ok(sj_on(&mut WitnessIndex::build(&inst)))
}

/// Thm 2.4's component scan on the index: every per-component side-effect
/// count is an `O(occ)` counter probe, so the whole scan is one pass over
/// the component occurrence lists instead of one hypergraph rescan each.
/// Optimal for both objectives (Thm 2.9: one component is a size-1
/// deletion). Leaves the index clean.
pub(crate) fn sj_on(idx: &mut WitnessIndex) -> Deletion {
    debug_assert_eq!(
        idx.target_witness_count(),
        1,
        "SJ output tuples have exactly one witness"
    );
    // Slots ascend in tid order, so keeping the first strict minimum
    // reproduces the (count, tid) tie-break of the rescan implementation,
    // and returns exactly what the exact search returns.
    let mut best: Option<(usize, usize)> = None; // (side effects, slot)
    for slot in 0..idx.support().len() {
        let count = idx.delta_if_deleted(slot);
        if best.is_none_or(|(c, _)| count < c) {
            best = Some((count, slot));
        }
    }
    let (_, slot) = best.expect("witnesses are non-empty");
    idx.deletion_of([slot])
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
    fn exact_finds_side_effect_free_deletion() {
        let (q, db) = usergroup();
        let t = tuple(["bob", "report"]);
        let sol = min_view_side_effects(&q, &db, &t, &ExactOptions::default()).unwrap();
        assert!(sol.is_side_effect_free(), "solution {sol}");
        let inst = DeletionInstance::build(&q, &db, &t).unwrap();
        assert!(inst.deletes_target(&sol.deletions));
        assert!(inst.verify_against_reevaluation(&sol.deletions).unwrap());
    }

    #[test]
    fn exact_reports_unavoidable_side_effects() {
        // Every deletion of (a,c) from Π_{A,C}(R1 ⋈ R2) with a shared middle
        // value kills a neighbor.
        let db = parse_database(
            "relation R1(A, B) { (a, x), (a2, x) }
             relation R2(B, C) { (x, c), (x, c2) }",
        )
        .unwrap();
        let q = parse_query("project(join(scan R1, scan R2), [A, C])").unwrap();
        let t = tuple(["a", "c"]);
        let sol = min_view_side_effects(&q, &db, &t, &ExactOptions::default()).unwrap();
        // Deleting (a,x) kills (a,c2); deleting (x,c) kills (a2,c). Either
        // way exactly one side effect.
        assert_eq!(sol.view_cost(), 1);
        assert_eq!(sol.source_cost(), 1);
        assert!(side_effect_free(&q, &db, &t, &ExactOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn decision_and_optimization_agree() {
        let (q, db) = usergroup();
        for t in dap_relalg::eval(&q, &db).unwrap().tuples.clone() {
            let min = min_view_side_effects(&q, &db, &t, &ExactOptions::default()).unwrap();
            let free = side_effect_free(&q, &db, &t, &ExactOptions::default()).unwrap();
            assert_eq!(min.is_side_effect_free(), free.is_some(), "target {t}");
        }
    }

    #[test]
    fn budget_is_enforced() {
        let (q, db) = usergroup();
        let t = tuple(["bob", "report"]);
        let err = min_view_side_effects(&q, &db, &t, &ExactOptions { node_budget: 1 }).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExhausted { .. }));
    }

    #[test]
    fn missing_target_errors() {
        let (q, db) = usergroup();
        let err = min_view_side_effects(&q, &db, &tuple(["zz", "zz"]), &ExactOptions::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::TargetNotInView { .. }));
    }

    #[test]
    fn spu_unique_deletion_is_side_effect_free() {
        let db = parse_database(
            "relation R(A, B) { (a1, b1), (a1, b2), (a2, b1) }
             relation S(A, B) { (a1, b1), (a3, b3) }",
        )
        .unwrap();
        // Π_A(σ_{B=b1}(R)) ∪ Π_A(S)
        let q = parse_query("union(project(select(scan R, B = 'b1'), [A]), project(scan S, [A]))")
            .unwrap();
        let t = tuple(["a1"]);
        let sol = spu_view_deletion(&q, &db, &t).unwrap();
        // Must delete (a1,b1) from R (passes the selection) and both S rows
        // projecting to a1: (a1,b1).
        assert_eq!(sol.source_cost(), 2);
        assert!(sol.is_side_effect_free());
        // Cross-check against the exact solver and re-evaluation.
        let exact = min_view_side_effects(&q, &db, &t, &ExactOptions::default()).unwrap();
        assert_eq!(
            exact.deletions, sol.deletions,
            "Thm 2.3: the solution is unique"
        );
        let inst = DeletionInstance::build(&q, &db, &t).unwrap();
        assert!(inst.verify_against_reevaluation(&sol.deletions).unwrap());
        assert!(inst.side_effects(&sol.deletions).is_empty());
    }

    #[test]
    fn spu_rejects_wrong_class_and_missing_target() {
        let (q, db) = usergroup();
        assert!(matches!(
            spu_view_deletion(&q, &db, &tuple(["bob", "report"])),
            Err(CoreError::WrongClass { .. })
        ));
        let db2 = parse_database("relation R(A) { (a) }").unwrap();
        let q2 = parse_query("scan R").unwrap();
        assert!(matches!(
            spu_view_deletion(&q2, &db2, &tuple(["zz"])),
            Err(CoreError::TargetNotInView { .. })
        ));
    }

    #[test]
    fn sj_picks_min_side_effect_component() {
        let db = parse_database(
            "relation UserGroup(user, grp) {
                 (ann, staff), (bob, staff)
             }
             relation GroupFile(grp, file) {
                 (staff, report), (staff, memo)
             }",
        )
        .unwrap();
        let q = parse_query("join(scan UserGroup, scan GroupFile)").unwrap();
        let t = tuple(["ann", "staff", "report"]);
        let sol = sj_view_deletion(&q, &db, &t).unwrap();
        // Deleting (ann,staff) kills (ann,staff,memo) → 1 side effect.
        // Deleting (staff,report) kills (bob,staff,report) → 1 side effect.
        assert_eq!(sol.view_cost(), 1);
        assert_eq!(sol.source_cost(), 1);
        let inst = DeletionInstance::build(&q, &db, &t).unwrap();
        assert!(inst.verify_against_reevaluation(&sol.deletions).unwrap());
    }

    #[test]
    fn sj_side_effect_free_when_component_unshared() {
        let db = parse_database(
            "relation R(A, B) { (a1, k), (a2, k) }
             relation S(B, C) { (k, c1) }",
        )
        .unwrap();
        let q = parse_query("join(scan R, scan S)").unwrap();
        let t = tuple(["a1", "k", "c1"]);
        let sol = sj_view_deletion(&q, &db, &t).unwrap();
        // (a1,k) participates only in the target's witness.
        assert!(sol.is_side_effect_free());
        assert_eq!(
            sol.deletions,
            BTreeSet::from([db.tid_of("R", &tuple(["a1", "k"])).unwrap()])
        );
    }

    #[test]
    fn sj_agrees_with_exact_solver() {
        let (_, db) = usergroup();
        let q = parse_query("join(scan UserGroup, scan GroupFile)").unwrap();
        for t in dap_relalg::eval(&q, &db).unwrap().tuples.clone() {
            let sj = sj_view_deletion(&q, &db, &t).unwrap();
            let exact = min_view_side_effects(&q, &db, &t, &ExactOptions::default()).unwrap();
            assert_eq!(sj.view_cost(), exact.view_cost(), "target {t}");
        }
    }

    #[test]
    fn sj_rejects_wrong_class() {
        let (q, db) = usergroup();
        assert!(matches!(
            sj_view_deletion(&q, &db, &tuple(["bob", "report"])),
            Err(CoreError::WrongClass { .. })
        ));
    }

    #[test]
    fn ju_union_of_joins_side_effect_structure() {
        // A miniature of the Theorem 2.2 construction: deleting (T, F) from
        // (R1 ⋈ RP1) ∪ (R1 ⋈ S1-as-A2) forces deleting T or F.
        let db = parse_database(
            "relation R1(A1) { (T) }
             relation RP1(A2) { (F) }
             relation S1(A2) { (c1) }",
        )
        .unwrap();
        let q = parse_query("union(join(scan R1, scan RP1), join(scan R1, scan S1))").unwrap();
        let t = tuple(["T", "F"]);
        // Deleting F from RP1 is side-effect-free; deleting T kills (T, c1).
        let sol = min_view_side_effects(&q, &db, &t, &ExactOptions::default()).unwrap();
        assert!(sol.is_side_effect_free());
        assert_eq!(
            sol.deletions,
            BTreeSet::from([db.tid_of("RP1", &tuple(["F"])).unwrap()])
        );
    }
}
