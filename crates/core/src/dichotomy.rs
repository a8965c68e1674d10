//! The paper's dichotomy tables and the one-shot dispatchers.
//!
//! Sections 2.1, 2.2 and 3.1 each close with a table classifying SPJU
//! subclasses as poly-time or NP-hard. This module encodes those tables
//! ([`complexity`], [`paper_table`]). The deletion one-shots
//! ([`delete_min_view_side_effects`], [`delete_min_source`]) build a
//! [`DeletionContext`] and call [`DeletionContext::solve`], which routes by
//! the same class boundary; placement dispatches here
//! ([`place_annotation`], [`place_annotations`]).

use crate::deletion::view_side_effect::ExactOptions;
use crate::deletion::{Deletion, DeletionContext, Objective};
use crate::error::{CoreError, Result};
use crate::placement::generic::{min_side_effect_placement, PlacementIndex};
use crate::placement::sju::sju_placement;
use crate::placement::spu::spu_placement;
use crate::placement::Placement;
use dap_provenance::ViewLoc;
use dap_relalg::{Database, OpFootprint, Query, Tuple};
use std::fmt;

/// The two sides of the dichotomy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Complexity {
    /// Solvable in polynomial time.
    PolyTime,
    /// NP-hard (and for minimum source deletions, set-cover-hard to
    /// approximate).
    NpHard,
}

impl fmt::Display for Complexity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Complexity::PolyTime => write!(f, "P"),
            Complexity::NpHard => write!(f, "NP-hard"),
        }
    }
}

/// The three problems the paper classifies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Problem {
    /// §2.1: does a side-effect-free view deletion exist / minimize `|ΔV|`.
    ViewSideEffect,
    /// §2.2: minimize the number of source deletions.
    SourceSideEffect,
    /// §3.1: side-effect-free annotation placement.
    AnnotationPlacement,
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Problem::ViewSideEffect => write!(f, "view side-effect (deletion)"),
            Problem::SourceSideEffect => write!(f, "source side-effect (deletion)"),
            Problem::AnnotationPlacement => write!(f, "annotation placement"),
        }
    }
}

/// The complexity of `problem` for queries with footprint `fp`, per the
/// paper's three tables. Renaming (δ) never changes the class.
pub fn complexity(problem: Problem, fp: &OpFootprint) -> Complexity {
    match problem {
        // §2.1 and §2.2 share the boundary: hard iff join combines with
        // projection or union; SPU (no join) and SJ (join only) are in P.
        Problem::ViewSideEffect | Problem::SourceSideEffect => {
            if fp.join && (fp.project || fp.union_) {
                Complexity::NpHard
            } else {
                Complexity::PolyTime
            }
        }
        // §3.1: hard iff projection and join are combined; SJU and SPU are
        // in P.
        Problem::AnnotationPlacement => {
            if fp.join && fp.project {
                Complexity::NpHard
            } else {
                Complexity::PolyTime
            }
        }
    }
}

/// A row of one of the paper's tables: the query-class label and its
/// complexity.
pub type TableRow = (&'static str, Complexity);

/// The exact rows of the paper's table for `problem`, in the paper's order.
pub fn paper_table(problem: Problem) -> Vec<TableRow> {
    match problem {
        Problem::ViewSideEffect | Problem::SourceSideEffect => vec![
            ("Queries involving PJ", Complexity::NpHard),
            ("Queries involving JU", Complexity::NpHard),
            ("SPU", Complexity::PolyTime),
            ("SJ", Complexity::PolyTime),
        ],
        Problem::AnnotationPlacement => vec![
            ("Queries involving PJ", Complexity::NpHard),
            ("SJU", Complexity::PolyTime),
            ("SPU", Complexity::PolyTime),
        ],
    }
}

/// Which solver a solve or dispatch ran (returned for reporting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolverKind {
    /// Theorem 2.3 / 2.8 / 3.3 linear scan (SPU).
    Spu,
    /// Theorem 2.4 / 2.9 component scan (SJ).
    Sj,
    /// Theorem 3.4 per-branch counting (SJU).
    Sju,
    /// Theorem 2.6 min-cut (chain joins).
    ChainMinCut,
    /// §2.1.1 keyed fast path (FDs make witnesses unique).
    Keyed,
    /// Exact search over the witness hypergraph (NP-hard classes).
    ExactSearch,
    /// Generic where-provenance placement.
    GenericPlacement,
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverKind::Spu => write!(f, "SPU linear scan (Thm 2.3/2.8/3.3)"),
            SolverKind::Sj => write!(f, "SJ component scan (Thm 2.4/2.9)"),
            SolverKind::Sju => write!(f, "SJU branch counting (Thm 3.4)"),
            SolverKind::ChainMinCut => write!(f, "chain-join min-cut (Thm 2.6)"),
            SolverKind::Keyed => write!(f, "keyed fast path (§2.1.1 FDs)"),
            SolverKind::ExactSearch => write!(f, "exact witness-hypergraph search"),
            SolverKind::GenericPlacement => write!(f, "generic where-provenance placement"),
        }
    }
}

/// Delete `target` with minimum view side effects: one
/// [`DeletionContext::solve`], which takes the polynomial algorithm when
/// the query class has one.
pub fn delete_min_view_side_effects(
    q: &Query,
    db: &Database,
    target: &Tuple,
) -> Result<(Deletion, SolverKind)> {
    DeletionContext::new(q, db)?.solve(target, Objective::View, &ExactOptions::default())
}

/// Delete `target` with minimum source deletions: one
/// [`DeletionContext::solve`], which takes the polynomial algorithm when
/// the query class has one (including the chain min-cut special case).
pub fn delete_min_source(
    q: &Query,
    db: &Database,
    target: &Tuple,
) -> Result<(Deletion, SolverKind)> {
    DeletionContext::new(q, db)?.solve(target, Objective::Source, &ExactOptions::default())
}

/// Like [`delete_min_view_side_effects`], but additionally aware of
/// declared functional dependencies: when the §2.1.1 keyed condition holds,
/// the polynomial fast path is used even though the bare query class is
/// NP-hard.
pub fn delete_min_view_side_effects_with_fds(
    q: &Query,
    db: &Database,
    fds: &dap_relalg::FdCatalog,
    target: &Tuple,
) -> Result<(Deletion, SolverKind)> {
    // `WrongClass` is the keyed path's "not keyed" answer, decided before
    // it evaluates anything.
    match crate::deletion::keyed::keyed_view_deletion(q, db, fds, target) {
        Err(CoreError::WrongClass { .. }) => delete_min_view_side_effects(q, db, target),
        sol => Ok((sol?, SolverKind::Keyed)),
    }
}

/// Place an annotation reaching `target` with minimum side effects,
/// dispatching to the polynomial algorithm when the query class has one.
/// For the generic class [`min_side_effect_placement`] inverts the batched
/// where-provenance only for this target's candidates — it does not build
/// the whole [`PlacementIndex`].
pub fn place_annotation(
    q: &Query,
    db: &Database,
    target: &ViewLoc,
) -> Result<(Placement, SolverKind)> {
    match placement_solver_for(q) {
        SolverKind::Spu => Ok((spu_placement(q, db, target)?, SolverKind::Spu)),
        SolverKind::Sju => Ok((sju_placement(q, db, target)?, SolverKind::Sju)),
        _ => Ok((
            min_side_effect_placement(q, db, target)?,
            SolverKind::GenericPlacement,
        )),
    }
}

/// The single dispatch rule shared by [`place_annotation`] and
/// [`place_annotations`]: SPU → Thm 3.3 scan, SJU → Thm 3.4 counting,
/// everything else → the generic engine-backed solver.
fn placement_solver_for(q: &Query) -> SolverKind {
    let fp = OpFootprint::of(q);
    if !fp.join && !fp.rename {
        SolverKind::Spu
    } else if !fp.project {
        SolverKind::Sju
    } else {
        SolverKind::GenericPlacement
    }
}

/// Batched version of [`place_annotation`]: solve many target locations
/// over the same `(Q, S)` with the work shared across targets. For the
/// generic (NP-hard) class this builds the annotated-evaluation placement
/// index **once** — one tree walk for the whole batch — instead of one per
/// target; the polynomial classes dispatch per target (they never
/// materialize provenance). Placements come back in target order; the
/// first failing target's error is returned.
pub fn place_annotations(
    q: &Query,
    db: &Database,
    targets: &[ViewLoc],
) -> Result<(Vec<Placement>, SolverKind)> {
    let kind = placement_solver_for(q);
    let sols = match kind {
        SolverKind::Spu => targets
            .iter()
            .map(|t| spu_placement(q, db, t))
            .collect::<Result<_>>()?,
        SolverKind::Sju => targets
            .iter()
            .map(|t| sju_placement(q, db, t))
            .collect::<Result<_>>()?,
        _ => {
            let index = PlacementIndex::build(q, db)?;
            targets
                .iter()
                .map(|t| index.place(t))
                .collect::<Result<_>>()?
        }
    };
    Ok((sols, kind))
}

/// Render one of the paper's tables as aligned text (used by the report
/// binaries and `dap tables`).
pub fn format_paper_table(problem: Problem) -> String {
    let rows = paper_table(problem);
    let header = match problem {
        Problem::ViewSideEffect => "Deciding whether there is a side-effect-free deletion",
        Problem::SourceSideEffect => "Finding the minimum source deletions",
        Problem::AnnotationPlacement => "Deciding whether there is a side-effect-free annotation",
    };
    let width = rows
        .iter()
        .map(|(c, _)| c.len())
        .max()
        .unwrap_or(0)
        .max("Query class".len());
    let mut out = String::new();
    out.push_str(&format!(
        "{:width$}  {}\n",
        "Query class",
        header,
        width = width
    ));
    for (class, cx) in rows {
        out.push_str(&format!("{class:width$}  {cx}\n", width = width));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_relalg::{parse_database, parse_query, tuple};

    fn fp_of(text: &str) -> OpFootprint {
        OpFootprint::of(&parse_query(text).unwrap())
    }

    #[test]
    fn deletion_boundary_matches_paper() {
        // PJ and JU are hard for both deletion problems.
        let pj = fp_of("project(join(scan R, scan S), [A])");
        let ju = fp_of("union(join(scan R, scan S), scan T)");
        let spu = fp_of("union(project(select(scan R, A = 1), [A]), scan T)");
        let sj = fp_of("select(join(scan R, scan S), A = 1)");
        for problem in [Problem::ViewSideEffect, Problem::SourceSideEffect] {
            assert_eq!(complexity(problem, &pj), Complexity::NpHard);
            assert_eq!(complexity(problem, &ju), Complexity::NpHard);
            assert_eq!(complexity(problem, &spu), Complexity::PolyTime);
            assert_eq!(complexity(problem, &sj), Complexity::PolyTime);
        }
    }

    #[test]
    fn annotation_boundary_matches_paper() {
        let pj = fp_of("project(join(scan R, scan S), [A])");
        let ju = fp_of("union(join(scan R, scan S), scan T)");
        let sju = fp_of("select(join(scan R, scan S), A = 1)");
        let spu = fp_of("project(select(scan R, A = 1), [A])");
        assert_eq!(
            complexity(Problem::AnnotationPlacement, &pj),
            Complexity::NpHard
        );
        // JU without projection is polynomial for annotation — the class
        // that flips between the two problems.
        assert_eq!(
            complexity(Problem::AnnotationPlacement, &ju),
            Complexity::PolyTime
        );
        assert_eq!(
            complexity(Problem::AnnotationPlacement, &sju),
            Complexity::PolyTime
        );
        assert_eq!(
            complexity(Problem::AnnotationPlacement, &spu),
            Complexity::PolyTime
        );
    }

    #[test]
    fn rename_never_changes_the_class() {
        let with = fp_of("rename(project(join(scan R, scan S), [A]), {A -> B})");
        let without = fp_of("project(join(scan R, scan S), [A])");
        for problem in [
            Problem::ViewSideEffect,
            Problem::SourceSideEffect,
            Problem::AnnotationPlacement,
        ] {
            assert_eq!(complexity(problem, &with), complexity(problem, &without));
        }
    }

    #[test]
    fn paper_tables_have_expected_shape() {
        assert_eq!(paper_table(Problem::ViewSideEffect).len(), 4);
        assert_eq!(paper_table(Problem::SourceSideEffect).len(), 4);
        assert_eq!(paper_table(Problem::AnnotationPlacement).len(), 3);
        let rendered = format_paper_table(Problem::ViewSideEffect);
        assert!(rendered.contains("Queries involving PJ"));
        assert!(rendered.contains("NP-hard"));
        assert!(rendered.contains("SPU"));
    }

    #[test]
    fn dispatchers_choose_the_expected_solver() {
        let db = parse_database(
            "relation R(A, B) { (a, x) }
             relation S(B, C) { (x, c) }",
        )
        .unwrap();

        // SPU → Spu.
        let q = parse_query("project(scan R, [A])").unwrap();
        let (_, kind) = delete_min_view_side_effects(&q, &db, &tuple(["a"])).unwrap();
        assert_eq!(kind, SolverKind::Spu);
        let (_, kind) = delete_min_source(&q, &db, &tuple(["a"])).unwrap();
        assert_eq!(kind, SolverKind::Spu);
        let (_, kind) = place_annotation(&q, &db, &ViewLoc::new(tuple(["a"]), "A")).unwrap();
        assert_eq!(kind, SolverKind::Spu);

        // SJ → Sj / Sju.
        let q = parse_query("join(scan R, scan S)").unwrap();
        let t = tuple(["a", "x", "c"]);
        let (_, kind) = delete_min_view_side_effects(&q, &db, &t).unwrap();
        assert_eq!(kind, SolverKind::Sj);
        let (_, kind) = delete_min_source(&q, &db, &t).unwrap();
        assert_eq!(kind, SolverKind::Sj);
        let (_, kind) = place_annotation(&q, &db, &ViewLoc::new(t, "A")).unwrap();
        assert_eq!(kind, SolverKind::Sju);

        // Chain PJ → ChainMinCut for source, ExactSearch for view.
        let q = parse_query("project(join(scan R, scan S), [A, C])").unwrap();
        let t = tuple(["a", "c"]);
        let (_, kind) = delete_min_source(&q, &db, &t).unwrap();
        assert_eq!(kind, SolverKind::ChainMinCut);
        let (_, kind) = delete_min_view_side_effects(&q, &db, &t).unwrap();
        assert_eq!(kind, SolverKind::ExactSearch);
        let (_, kind) = place_annotation(&q, &db, &ViewLoc::new(tuple(["a", "c"]), "A")).unwrap();
        assert_eq!(kind, SolverKind::GenericPlacement);

        // JU, not a chain → ExactSearch for both objectives.
        let q = parse_query("union(join(scan R, scan S), join(scan R, scan S))").unwrap();
        let t = tuple(["a", "x", "c"]);
        let (_, kind) = delete_min_source(&q, &db, &t).unwrap();
        assert_eq!(kind, SolverKind::ExactSearch);
        let (_, kind) = delete_min_view_side_effects(&q, &db, &t).unwrap();
        assert_eq!(kind, SolverKind::ExactSearch);
    }

    /// The serving loop over one context: solve each live target, then
    /// commit its deletion; `None` for targets an earlier commit removed.
    fn solve_loop(
        q: &Query,
        db: &Database,
        targets: &[Tuple],
        objective: Objective,
    ) -> Vec<Option<Deletion>> {
        let mut ctx = DeletionContext::new(q, db).unwrap();
        targets
            .iter()
            .map(|t| {
                if !ctx.contains(t) {
                    return None;
                }
                let (sol, _) = ctx.solve(t, objective, &ExactOptions::default()).unwrap();
                ctx.apply_delete(&sol.deletions);
                Some(sol)
            })
            .collect()
    }

    #[test]
    fn batch_placement_agrees_with_single_dispatch() {
        let db = parse_database(
            "relation R(A, B) { (a, x), (a2, x) }
             relation S(B, C) { (x, c), (x, c2) }",
        )
        .unwrap();
        for text in [
            "project(scan R, [A])",                  // SPU
            "join(scan R, scan S)",                  // SJU
            "project(join(scan R, scan S), [A, C])", // generic PJ
        ] {
            let q = parse_query(text).unwrap();
            let view = dap_relalg::eval(&q, &db).unwrap();
            let targets: Vec<ViewLoc> = view
                .tuples
                .iter()
                .flat_map(|t| {
                    view.schema
                        .attrs()
                        .iter()
                        .map(|a| ViewLoc::new(t.clone(), a.clone()))
                        .collect::<Vec<_>>()
                })
                .collect();
            let (batch, batch_kind) = place_annotations(&q, &db, &targets).unwrap();
            assert_eq!(batch.len(), targets.len());
            for (target, sol) in targets.iter().zip(&batch) {
                let (single, kind) = place_annotation(&q, &db, target).unwrap();
                assert_eq!(kind, batch_kind, "query {text}");
                assert_eq!(sol.cost(), single.cost(), "query {text} target {target}");
            }
        }
    }

    #[test]
    fn apply_many_serves_targets_against_the_maintained_view() {
        let db = parse_database(
            "relation R(A, B) { (a, x), (a2, x) }
             relation S(B, C) { (x, c), (x, c2) }",
        )
        .unwrap();
        let q = parse_query("project(join(scan R, scan S), [A, C])").unwrap();
        let view = dap_relalg::eval(&q, &db).unwrap();
        let sols = solve_loop(&q, &db, &view.tuples, Objective::View);
        assert_eq!(sols.len(), view.len());
        assert!(sols[0].is_some(), "first target always solvable");
        // Every committed deletion accumulates; at the end the view is
        // empty under the union of all deletion sets.
        let all: std::collections::BTreeSet<_> = sols
            .iter()
            .flatten()
            .flat_map(|d| d.deletions.iter().cloned())
            .collect();
        let after = dap_relalg::eval(&q, &db.without(&all)).unwrap();
        assert!(after.is_empty(), "serving loop cleared every target");
        // Targets removed as an earlier side effect come back as None —
        // and at least one None appears here, since every deletion of
        // (a, c) side-effects a neighbor.
        assert!(sols.iter().any(Option::is_none));
        // The source-objective loop clears the view too.
        let sols = solve_loop(&q, &db, &view.tuples, Objective::Source);
        let all: std::collections::BTreeSet<_> = sols
            .iter()
            .flatten()
            .flat_map(|d| d.deletions.iter().cloned())
            .collect();
        assert!(dap_relalg::eval(&q, &db.without(&all)).unwrap().is_empty());
    }

    #[test]
    fn source_apply_loop_serves_chain_targets_against_the_patched_view() {
        use crate::deletion::source_side_effect::min_source_deletion;
        use dap_relalg::detect_chain_join;
        let db = parse_database(
            "relation R1(A, B) { (a, b1), (a, b2) }
             relation R2(B, C) { (b1, c1), (b2, c2) }
             relation R3(C, D) { (c1, d), (c2, d), (c1, e) }",
        )
        .unwrap();
        let q = parse_query("project(join(join(scan R1, scan R2), scan R3), [A, D])").unwrap();
        assert!(detect_chain_join(&q, &db.catalog()).is_some());
        let view = dap_relalg::eval(&q, &db).unwrap();
        let sols = solve_loop(&q, &db, &view.tuples, Objective::Source);
        // Each turn's solution must be minimal and sound for the database
        // *as patched by the earlier commits* — exactly what the stale
        // free-function min-cut gets wrong.
        let mut acc = std::collections::BTreeSet::new();
        for (t, sol) in view.tuples.iter().zip(&sols) {
            let db_now = db.without(&acc);
            let Some(sol) = sol else {
                assert!(
                    !dap_relalg::eval(&q, &db_now).unwrap().contains(t),
                    "None only for targets earlier commits removed"
                );
                continue;
            };
            assert!(
                sol.deletions.is_disjoint(&acc),
                "serving loop proposed an already-deleted tuple for {t}"
            );
            let exact = min_source_deletion(&q, &db_now, t).unwrap();
            assert_eq!(
                sol.source_cost(),
                exact.source_cost(),
                "stale cut for {t} after commits {acc:?}"
            );
            assert!(!dap_relalg::eval(&q, &db_now.without(&sol.deletions))
                .unwrap()
                .contains(t));
            acc.extend(sol.deletions.iter().cloned());
        }
        // What-if solves on one context (no commits) stay on the chain arm
        // and agree with the one-shot dispatch.
        let mut ctx = DeletionContext::new(&q, &db).unwrap();
        for t in &view.tuples {
            let (sol, kind) = ctx
                .solve(t, Objective::Source, &ExactOptions::default())
                .unwrap();
            assert_eq!(kind, SolverKind::ChainMinCut);
            let (single, single_kind) = delete_min_source(&q, &db, t).unwrap();
            assert_eq!(single_kind, SolverKind::ChainMinCut);
            assert_eq!(sol, single, "target {t}");
        }
    }

    #[test]
    fn fd_aware_dispatcher_uses_keyed_path() {
        let db = parse_database(
            "relation Emp(eid, dept) { (e1, sales), (e2, eng) }
             relation Dept(dept, mgr) { (sales, ann), (eng, bob) }",
        )
        .unwrap();
        let q = parse_query("project(join(scan Emp, scan Dept), [eid, mgr])").unwrap();
        let mut fds = dap_relalg::FdCatalog::new();
        fds.add_key(&db, "Emp", &["eid"]);
        fds.add_key(&db, "Dept", &["dept"]);
        let (sol, kind) =
            delete_min_view_side_effects_with_fds(&q, &db, &fds, &tuple(["e1", "ann"])).unwrap();
        assert_eq!(kind, SolverKind::Keyed);
        assert!(sol.is_side_effect_free());
        // Without FDs the same call falls back to the exact search.
        let (_, kind) = delete_min_view_side_effects_with_fds(
            &q,
            &db,
            &dap_relalg::FdCatalog::new(),
            &tuple(["e1", "ann"]),
        )
        .unwrap();
        assert_eq!(kind, SolverKind::ExactSearch);
    }

    #[test]
    fn dispatcher_solutions_are_correct() {
        let db = parse_database(
            "relation R(A, B) { (a, x), (a2, x) }
             relation S(B, C) { (x, c), (x, c2) }",
        )
        .unwrap();
        let q = parse_query("project(join(scan R, scan S), [A, C])").unwrap();
        let t = tuple(["a", "c"]);
        let (view_sol, _) = delete_min_view_side_effects(&q, &db, &t).unwrap();
        assert_eq!(view_sol.view_cost(), 1, "unavoidable side effect");
        let (src_sol, _) = delete_min_source(&q, &db, &t).unwrap();
        assert_eq!(src_sol.source_cost(), 1);
        let (placement, _) = place_annotation(&q, &db, &ViewLoc::new(t.clone(), "A")).unwrap();
        // The only candidate (R(a,x).A) also reaches (a,c2).A — one
        // unavoidable side effect.
        assert_eq!(placement.cost(), 1);
    }
}
