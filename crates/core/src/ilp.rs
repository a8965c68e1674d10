//! **Unified 0/1-ILP deletion propagation** — every variant of the paper's
//! deletion problem as one pseudo-Boolean program over the witness
//! hypergraph.
//!
//! The specialized solvers in [`crate::deletion`] each exploit one slice of
//! the dichotomy: branch-and-bound over minimal hitting sets for the view
//! objective, set-cover branch-and-bound for the source objective, min-cut
//! for chain joins, closed forms for SPU / SJ. This module expresses the
//! *whole* family — minimum view side-effect, minimum source side-effect,
//! chain min-cut, plus generalizations the specialized stack does not
//! cover (per-tuple **weights** and **multi-tuple target sets**) — as a
//! single 0/1 integer linear program solved by [`dap_sat::pb`]'s
//! pseudo-Boolean branch-and-bound.
//!
//! ## The encoding
//!
//! One 0/1 variable `x_i` per support tuple (`x_i = 1` ⇔ delete it).
//!
//! * **Hitting constraints** — for every witness `w` of every target,
//!   `Σ_{i ∈ w} x_i ≥ 1`: each target loses all its witnesses.
//! * **Source objective** — minimize `Σ weight_i · x_i`.
//! * **View objective** — for every frontier tuple `f` (a non-target view
//!   tuple all of whose witnesses intersect the support) introduce a
//!   *death indicator* `y_f` and per-witness *survival* variables `s_w`
//!   with `s_w + x_i ≤ 1` for every member `i` of `w` (a witness survives
//!   only if no member is deleted) and `y_f + Σ_w s_w ≥ 1` (`f` is dead
//!   unless some witness survives). Minimizing
//!   `Σ_f B · y_f + Σ_i weight_i · x_i` with `B > Σ_i weight_i` orders
//!   solutions lexicographically: fewest (weighted) side effects first,
//!   cheapest deletion as the tie-break — exactly the specialized
//!   [`crate::deletion::view_side_effect`] objective when all weights
//!   are 1.
//!
//! Chain queries need no special casing: the chain min-cut instances are
//! hitting-set instances whose constraint matrix happens to be an interval
//! matrix, and the ILP solves them exactly like everything else.
//!
//! Single-target solves do not route here: [`DeletionContext::solve`] runs
//! the dichotomy's own arms, which match or beat `dap_sat::pb` (a
//! branch-and-bound without an LP relaxation) on every class. The ILP serves what no
//! specialized arm expresses — weighted and multi-target requests, through
//! [`DeletionContext::solve_ilp`] — and stays a **differential oracle** of
//! the routed arms through the cached-index
//! [`DeletionContext::min_view_side_effects_ilp_turn`] /
//! [`DeletionContext::min_source_deletion_ilp_turn`]: the property tests
//! in `tests/prop_ilp.rs` pin cost-identity on every dichotomy class.

use crate::deletion::index::WitnessIndex;
use crate::deletion::view_side_effect::ExactOptions;
use crate::deletion::{Deletion, DeletionContext, Objective};
use crate::error::{CoreError, Result};
use dap_relalg::{Tid, Tuple};
use dap_sat::pb::{self, PbConstraint, PbProblem};
use std::collections::{BTreeSet, HashMap};

/// Knobs for the ILP solver: the same node budget the exact arms of
/// [`DeletionContext::solve`] take.
pub type IlpOptions = ExactOptions;

/// One deletion-propagation problem for [`DeletionContext::solve_ilp`]:
/// which view tuples must go, which cost to minimize, and optional
/// per-source-tuple weights (unlisted tuples weigh 1).
#[derive(Clone, Debug)]
pub struct IlpRequest {
    /// View tuples that must all disappear (duplicates are ignored).
    pub targets: Vec<Tuple>,
    /// The cost to minimize: lexicographic (weighted view side effects,
    /// then weighted deletion cost) for [`Objective::View`], weighted
    /// deletion cost for [`Objective::Source`].
    pub objective: Objective,
    /// Per-tuple deletion weights; any tid not present weighs 1.
    pub weights: HashMap<Tid, u64>,
    /// Solver knobs.
    pub options: IlpOptions,
}

impl IlpRequest {
    /// A view-objective request over `targets` with unit weights.
    pub fn view(targets: impl IntoIterator<Item = Tuple>) -> IlpRequest {
        IlpRequest {
            targets: targets.into_iter().collect(),
            objective: Objective::View,
            weights: HashMap::new(),
            options: IlpOptions::default(),
        }
    }

    /// A source-objective request over `targets` with unit weights.
    pub fn source(targets: impl IntoIterator<Item = Tuple>) -> IlpRequest {
        IlpRequest {
            targets: targets.into_iter().collect(),
            objective: Objective::Source,
            weights: HashMap::new(),
            options: IlpOptions::default(),
        }
    }

    /// Override per-tuple weights (tids not listed keep weight 1).
    pub fn weighted(mut self, weights: impl IntoIterator<Item = (Tid, u64)>) -> IlpRequest {
        self.weights = weights.into_iter().collect();
        self
    }

    /// Cap the branch-and-bound at `nodes` search nodes.
    pub fn with_node_budget(mut self, nodes: u64) -> IlpRequest {
        self.options.node_budget = nodes;
        self
    }
}

/// The encoded hypergraph slice one ILP solve runs over: the (sorted)
/// support, its weights, the targets' witness slot-lists (the hitting
/// constraints), and the frontier tuples with their witness slot-lists
/// (the view-objective indicators).
struct IlpInstance {
    support: Vec<Tid>,
    slot_weights: Vec<u64>,
    target_witnesses: Vec<Vec<usize>>,
    frontier: Vec<(Tuple, Vec<Vec<usize>>)>,
}

impl IlpInstance {
    /// Encode `req`'s targets against `ctx`'s **current** (maintained)
    /// why-provenance and touch skeleton. Errors with
    /// [`CoreError::TargetNotInView`] if any target is missing from the
    /// patched view.
    fn from_context(ctx: &DeletionContext, req: &IlpRequest) -> Result<IlpInstance> {
        let mut targets: Vec<&Tuple> = Vec::new();
        for t in &req.targets {
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        let mut support_set: BTreeSet<Tid> = BTreeSet::new();
        let mut witness_lists: Vec<&[dap_provenance::Witness]> = Vec::new();
        for t in &targets {
            let ws = ctx
                .why()
                .witnesses_of(t)
                .ok_or_else(|| CoreError::TargetNotInView {
                    tuple: (*t).clone(),
                })?;
            support_set.extend(ws.iter().flatten().cloned());
            witness_lists.push(ws);
        }
        let support: Vec<Tid> = support_set.into_iter().collect();
        let slot_of = |tid: &Tid| support.binary_search(tid).ok();
        let target_witnesses: Vec<Vec<usize>> = witness_lists
            .iter()
            .flat_map(|ws| ws.iter())
            .map(|w| w.iter().filter_map(slot_of).collect::<Vec<usize>>())
            .collect();
        debug_assert!(
            target_witnesses.iter().all(|w| !w.is_empty()),
            "target witnesses lie within the union support"
        );
        // Frontier: candidates from the touch skeleton, minus the targets,
        // keeping only tuples whose *every* witness intersects the support
        // (anything else keeps a witness forever and cannot die).
        let mut frontier = Vec::new();
        'candidates: for t in ctx.candidates_touching(support.iter()) {
            if targets.contains(&t) {
                continue;
            }
            let Some(ws) = ctx.why().witnesses_of(t) else {
                continue;
            };
            let mut lists = Vec::with_capacity(ws.len());
            for w in ws {
                let slots: Vec<usize> = w.iter().filter_map(slot_of).collect();
                if slots.is_empty() {
                    continue 'candidates;
                }
                lists.push(slots);
            }
            frontier.push((t.clone(), lists));
        }
        Ok(IlpInstance::weigh(
            support,
            target_witnesses,
            frontier,
            &req.weights,
        ))
    }

    /// Encode a single-target problem straight off a stamped
    /// [`WitnessIndex`] — the same hypergraph the specialized solvers
    /// search, read through the index's lazy transpose.
    fn from_index(idx: &mut WitnessIndex, weights: &HashMap<Tid, u64>) -> IlpInstance {
        let support = idx.support().to_vec();
        let target_witnesses: Vec<Vec<usize>> = (0..idx.target_witness_count())
            .map(|i| idx.target_witness_members(i).to_vec())
            .collect();
        let target_id = idx.target_id();
        let mut frontier = Vec::new();
        for id in 0..idx.frontier_len() {
            if id == target_id {
                continue;
            }
            let lists = idx.witness_slot_lists(id);
            if lists.is_empty() {
                continue; // retired by a serving-loop commit
            }
            frontier.push((idx.tuple_at(id).clone(), lists));
        }
        IlpInstance::weigh(support, target_witnesses, frontier, weights)
    }

    fn weigh(
        support: Vec<Tid>,
        target_witnesses: Vec<Vec<usize>>,
        frontier: Vec<(Tuple, Vec<Vec<usize>>)>,
        weights: &HashMap<Tid, u64>,
    ) -> IlpInstance {
        let slot_weights = support
            .iter()
            .map(|tid| weights.get(tid).copied().unwrap_or(1))
            .collect();
        IlpInstance {
            support,
            slot_weights,
            target_witnesses,
            frontier,
        }
    }

    /// Lower the instance to a [`PbProblem`], run [`pb::minimize`], and
    /// decode the assignment back into a [`Deletion`].
    fn solve(&self, objective: Objective, options: &IlpOptions) -> Result<Deletion> {
        let n = self.support.len();
        let mut constraints: Vec<PbConstraint> = self
            .target_witnesses
            .iter()
            .map(|w| PbConstraint::at_least(w.iter().map(|&i| (i, 1)), 1))
            .collect();
        let mut obj: Vec<u64> = self.slot_weights.clone();
        if objective == Objective::View {
            // B must dominate any achievable deletion cost so the view
            // term is the primary key of the lexicographic objective.
            let big = self
                .slot_weights
                .iter()
                .try_fold(0u64, |a, &w| a.checked_add(w))
                .and_then(|s| s.checked_add(1))
                .expect("total deletion weight fits in u64");
            let mut next = n;
            for (_, lists) in &self.frontier {
                let y = next;
                next += 1;
                obj.push(big);
                let mut death = vec![(y, 1)];
                for list in lists {
                    let s = next;
                    next += 1;
                    obj.push(0);
                    for &slot in list {
                        constraints.push(PbConstraint::at_most([(s, 1), (slot, 1)], 1));
                    }
                    death.push((s, 1));
                }
                constraints.push(PbConstraint::at_least(death, 1));
            }
        }
        let problem = PbProblem {
            num_vars: obj.len(),
            constraints,
            objective: obj,
        };
        let opts = pb::PbOptions {
            node_budget: options.node_budget,
        };
        let solution = pb::minimize(&problem, &opts)
            .map_err(
                |pb::PbError::BudgetExhausted { budget }| CoreError::BudgetExhausted { budget },
            )?
            .expect("deleting the whole support removes every target");
        let deletions: BTreeSet<Tid> = (0..n)
            .filter(|&i| solution.assignment[i])
            .map(|i| self.support[i].clone())
            .collect();
        // Side effects come from a direct frontier scan over the chosen
        // deletion — the indicator variables only shape the objective.
        let chosen = &solution.assignment;
        let view_side_effects: BTreeSet<Tuple> = self
            .frontier
            .iter()
            .filter(|(_, lists)| {
                lists
                    .iter()
                    .all(|list| list.iter().any(|&slot| chosen[slot]))
            })
            .map(|(t, _)| t.clone())
            .collect();
        if objective == Objective::View {
            let big: u64 = self.slot_weights.iter().sum::<u64>() + 1;
            let weight: u64 = (0..n)
                .filter(|&i| chosen[i])
                .map(|i| self.slot_weights[i])
                .sum();
            debug_assert_eq!(
                solution.objective,
                big * view_side_effects.len() as u64 + weight,
                "indicators agree with the frontier scan"
            );
        }
        Ok(Deletion {
            deletions,
            view_side_effects,
        })
    }
}

impl DeletionContext {
    /// Solve an arbitrary [`IlpRequest`] — any dichotomy class, weighted
    /// tuples, multi-tuple target sets — against this context's current
    /// (maintained) view. Returns the optimal [`Deletion`]; side effects
    /// are reported unweighted (the weights steer the optimizer only).
    pub fn solve_ilp(&self, req: &IlpRequest) -> Result<Deletion> {
        IlpInstance::from_context(self, req)?.solve(req.objective, &req.options)
    }

    /// The unified ILP for one target on its cached [`WitnessIndex`] (the
    /// cache [`DeletionContext::solve`] keeps): unit weights, the same
    /// optimum as the routed arm for `objective`.
    fn ilp_turn(
        &mut self,
        target: &Tuple,
        objective: Objective,
        opts: &IlpOptions,
    ) -> Result<Deletion> {
        let mut idx = self.take_index(target)?;
        let sol = IlpInstance::from_index(&mut idx, &HashMap::new()).solve(objective, opts);
        self.cache_index(target, idx);
        sol
    }

    /// The view objective through the unified ILP, on the target's cached
    /// index: the same optimum as [`DeletionContext::solve`].
    pub fn min_view_side_effects_ilp_turn(
        &mut self,
        target: &Tuple,
        opts: &IlpOptions,
    ) -> Result<Deletion> {
        self.ilp_turn(target, Objective::View, opts)
    }

    /// The source objective through the unified ILP, on the target's
    /// cached index: the same optimum as [`DeletionContext::solve`].
    pub fn min_source_deletion_ilp_turn(
        &mut self,
        target: &Tuple,
        opts: &IlpOptions,
    ) -> Result<Deletion> {
        self.ilp_turn(target, Objective::Source, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deletion::view_side_effect::ExactOptions;
    use dap_relalg::{parse_database, parse_query, tuple, Database, Query};

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
    fn ilp_matches_the_specialized_solvers_on_every_view_tuple() {
        let (q, db) = fixture();
        let mut ctx = DeletionContext::new(&q, &db).unwrap();
        let opts = IlpOptions::default();
        for t in dap_relalg::eval(&q, &db).unwrap().tuples.clone() {
            let exact_view = ctx
                .min_view_side_effects(&t, &ExactOptions::default())
                .unwrap();
            let ilp_view = ctx.min_view_side_effects_ilp_turn(&t, &opts).unwrap();
            assert_eq!(ilp_view.view_cost(), exact_view.view_cost(), "{t}");
            let exact_src = ctx.min_source_deletion(&t).unwrap();
            let ilp_src = ctx.min_source_deletion_ilp_turn(&t, &opts).unwrap();
            assert_eq!(ilp_src.source_cost(), exact_src.source_cost(), "{t}");
            // Solutions are sound, not just cost-identical.
            let inst = ctx.for_target(&t).unwrap();
            assert!(inst
                .verify_against_reevaluation(&ilp_view.deletions)
                .unwrap());
            assert!(inst
                .verify_against_reevaluation(&ilp_src.deletions)
                .unwrap());
        }
    }

    #[test]
    fn weights_steer_the_source_optimum() {
        let (q, db) = fixture();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        // (bob, report) is reachable via staff and via dev: cheapest unit
        // cut deletes one UserGroup row... unless we make it expensive.
        let t = tuple(["bob", "report"]);
        let unit = ctx.solve_ilp(&IlpRequest::source([t.clone()])).unwrap();
        assert_eq!(unit.source_cost(), 2);
        let bob_staff = db.tid_of("UserGroup", &tuple(["bob", "staff"])).unwrap();
        let bob_dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        let weighted = ctx
            .solve_ilp(
                &IlpRequest::source([t.clone()])
                    .weighted([(bob_staff.clone(), 10), (bob_dev.clone(), 10)]),
            )
            .unwrap();
        // The GroupFile pair (staff,report) + (dev,report) costs 2; the
        // UserGroup pair now costs 20. The optimizer must switch sides.
        assert_eq!(weighted.source_cost(), 2);
        assert!(!weighted.deletions.contains(&bob_staff));
        assert!(!weighted.deletions.contains(&bob_dev));
        let inst = ctx.for_target(&t).unwrap();
        assert!(inst
            .verify_against_reevaluation(&weighted.deletions)
            .unwrap());
    }

    #[test]
    fn multi_target_requests_cover_every_target() {
        let (q, db) = fixture();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        let targets = vec![tuple(["bob", "report"]), tuple(["bob", "main"])];
        let sol = ctx.solve_ilp(&IlpRequest::source(targets.clone())).unwrap();
        let db2 = db.without(&sol.deletions);
        let view2 = dap_relalg::eval(&q, &db2).unwrap();
        for t in &targets {
            assert!(!view2.contains(t), "{t} must be gone");
        }
        // Deleting (bob, dev) kills both derivations of main and one of
        // report; (bob, staff) or (staff, report) finishes report: cost 2.
        assert_eq!(sol.source_cost(), 2);
        // Side effects are measured against non-target view tuples only.
        for t in &sol.view_side_effects {
            assert!(!targets.contains(t));
        }
    }

    #[test]
    fn turn_variants_match_and_reuse_the_cache() {
        let (q, db) = fixture();
        let mut ctx = DeletionContext::new(&q, &db).unwrap();
        let opts = IlpOptions::default();
        let t = tuple(["bob", "report"]);
        // The first turn stamps the index, the second reuses it.
        let cold_view = ctx.min_view_side_effects_ilp_turn(&t, &opts).unwrap();
        assert_eq!(ctx.cached_index_count(), 1);
        let turn_view = ctx.min_view_side_effects_ilp_turn(&t, &opts).unwrap();
        assert_eq!(cold_view, turn_view);
        let cold_src = DeletionContext::new(&q, &db)
            .unwrap()
            .min_source_deletion_ilp_turn(&t, &opts)
            .unwrap();
        let turn_src = ctx.min_source_deletion_ilp_turn(&t, &opts).unwrap();
        assert_eq!(cold_src, turn_src);
        assert_eq!(ctx.cached_index_count(), 1, "same target, same slot");
    }

    #[test]
    fn budget_exhaustion_surfaces_as_a_core_error() {
        let (q, db) = fixture();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        let req = IlpRequest::view([tuple(["bob", "report"])]).with_node_budget(1);
        assert!(matches!(
            ctx.solve_ilp(&req).unwrap_err(),
            CoreError::BudgetExhausted { budget: 1 }
        ));
    }

    #[test]
    fn context_and_index_builders_encode_the_same_problem() {
        let (q, db) = fixture();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        for t in dap_relalg::eval(&q, &db).unwrap().tuples.clone() {
            let req = IlpRequest::view([t.clone()]);
            let a = IlpInstance::from_context(&ctx, &req).unwrap();
            let (_, mut idx) = ctx.instance_and_index(&t).unwrap();
            let mut b = IlpInstance::from_index(&mut idx, &req.weights);
            assert_eq!(a.support, b.support, "{t}");
            assert_eq!(a.slot_weights, b.slot_weights, "{t}");
            let norm = |w: &mut Vec<Vec<usize>>| {
                for l in w.iter_mut() {
                    l.sort_unstable();
                }
                w.sort();
            };
            let mut aw = a.target_witnesses.clone();
            let mut bw = b.target_witnesses.clone();
            norm(&mut aw);
            norm(&mut bw);
            assert_eq!(aw, bw, "{t}");
            let mut af: Vec<(Tuple, Vec<Vec<usize>>)> = a.frontier.clone();
            af.sort_by(|x, y| x.0.cmp(&y.0));
            b.frontier.sort_by(|x, y| x.0.cmp(&y.0));
            for ((ta, mut wa), (tb, mut wb)) in af.into_iter().zip(b.frontier.clone()) {
                assert_eq!(ta, tb);
                norm(&mut wa);
                norm(&mut wb);
                assert_eq!(wa, wb, "{ta}");
            }
        }
    }

    #[test]
    fn missing_target_errors() {
        let (q, db) = fixture();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        assert!(matches!(
            ctx.solve_ilp(&IlpRequest::source([tuple(["zz", "zz"])]))
                .unwrap_err(),
            CoreError::TargetNotInView { .. }
        ));
    }
}
