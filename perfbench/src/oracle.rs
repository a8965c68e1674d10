//! Correctness gates, run off the clock after every run. A failed gate
//! aborts the run: a wrong answer is not a slow answer.
//!
//! * Durability: after the SIGKILL, acknowledged ⊆ recovered-committed ⊆
//!   sent, and every recovered view equals a fresh in-memory
//!   `PlanRegistry` over the recovered committed set.
//! * Solve answers: each answer is replayed against an oracle holding the
//!   state at the answer's position in the connection's order; its
//!   deletions must remove the target, its reported counts must match,
//!   and its cost must equal the specialized (dichotomy) solver's optimum.

use crate::e2e::{Crash, Rec, Warmup};
use crate::stats::Outcome;
use crate::workload::{parse_solve_body, translate, Class, Op, Workload};
use dap_core::deletion::view_side_effect::ExactOptions;
use dap_core::DeletionContext;
use dap_durability::DurableState;
use dap_provenance::WitnessesAnn;
use dap_relalg::{PlanRegistry, QueryId, Tid, Tuple};
use dap_serve::SolveObjective;
use std::collections::{BTreeSet, HashMap, HashSet};

pub fn check_recovery(
    w: &Workload,
    ids: &[QueryId],
    crash: &Crash,
    state: &DurableState,
) -> Result<(), String> {
    let committed = state.registry().committed();
    let sent: HashSet<&Tid> = crash.sent.iter().collect();
    if let Some(lost) = crash.acked.iter().find(|t| !committed.contains(*t)) {
        return Err(format!("acknowledged commit {lost} was not recovered"));
    }
    if let Some(ghost) = committed.iter().find(|t| !sent.contains(t)) {
        return Err(format!("recovered commit {ghost} was never sent"));
    }
    let catalog: Vec<(QueryId, &dap_relalg::Query)> =
        state.catalog().iter().map(|(id, q)| (*id, q)).collect();
    let expected: Vec<(QueryId, &dap_relalg::Query)> =
        ids.iter().copied().zip(&w.catalog).collect();
    if catalog != expected {
        return Err("recovered catalog differs from the registered one".into());
    }
    let mut oracle = PlanRegistry::<WitnessesAnn>::new(&w.db);
    for (id, q) in &expected {
        oracle
            .register_at(q, *id)
            .map_err(|e| format!("oracle register {id}: {e}"))?;
    }
    oracle.delete_sources(&committed.iter().cloned().collect::<Vec<_>>());
    for (id, _) in &expected {
        let got = state.registry().iter_query(*id);
        let want = oracle.iter_query(*id);
        if !got.eq(want) {
            return Err(format!("recovered view {id} differs from the oracle"));
        }
    }
    Ok(())
}

/// The oracle's optimum cost for one solve: view side effects for the
/// view objective, deletions for the source objective.
fn optimum(
    ctx: &DeletionContext,
    class: Class,
    objective: SolveObjective,
    t: &Tuple,
) -> Result<usize, String> {
    let exact = ExactOptions::default();
    let sol = match (class, objective) {
        // Thms 2.3 / 2.8: the whole support, optimal for both objectives.
        (Class::Spu, _) => ctx.spu_view_deletion(t),
        // Thm 2.6: min-cut over the chain's layered witness network.
        (Class::Chain, SolveObjective::Source) => ctx.chain_min_source_deletion(t),
        (_, SolveObjective::View) => ctx.min_view_side_effects(t, &exact),
        (_, SolveObjective::Source) => ctx.min_source_deletion(t),
    }
    .map_err(|e| format!("oracle solve: {e}"))?;
    Ok(match objective {
        SolveObjective::View => sol.view_cost(),
        SolveObjective::Source => sol.source_cost(),
    })
}

/// Per-solvable oracle state: a context over the solvable's sub-database
/// kept at the connection's position, and a version bumped per commit
/// that touched it.
struct OracleState {
    ctx: DeletionContext,
    version: u64,
}

/// Verify every answered solve (warm-ups first, then the measured ops in
/// connection order). Returns how many answers were checked.
pub fn verify_solves(w: &Workload, warmups: &[Warmup], recs: &[Rec]) -> Result<usize, String> {
    let mut states: Vec<OracleState> = w
        .solvables
        .iter()
        .map(|s| {
            DeletionContext::new(&s.query, &s.oracle_db)
                .map(|ctx| OracleState { ctx, version: 0 })
                .map_err(|e| format!("oracle context for {}: {e}", s.query))
        })
        .collect::<Result<_, _>>()?;
    let mut optima: HashMap<(usize, u64, bool, Tuple), usize> = HashMap::new();
    let mut seen: HashSet<(usize, u64, Tuple, String)> = HashSet::new();
    let mut checked = 0;
    let warm = warmups.iter().map(|wu| {
        (
            wu.solvable,
            SolveObjective::View,
            &wu.target,
            wu.body.as_str(),
        )
    });
    let mut check = |states: &mut Vec<OracleState>,
                     solvable: usize,
                     objective: SolveObjective,
                     target: &Tuple,
                     body: &str|
     -> Result<(), String> {
        let s = &w.solvables[solvable];
        let st = &states[solvable];
        let key = (
            solvable,
            st.version,
            target.clone(),
            format!("{objective} {body}"),
        );
        if seen.contains(&key) {
            return Ok(());
        }
        let fail = |why: String| {
            format!(
                "wrong solve answer on {} for {target} ({objective}): {body:?}: {why}",
                s.query
            )
        };
        let (deletions, side_effects, tids) =
            parse_solve_body(body).ok_or_else(|| fail("unparsable".into()))?;
        let dels: BTreeSet<Tid> = tids
            .iter()
            .map(|t| {
                translate(&w.db, &s.oracle_db, t)
                    .ok_or_else(|| fail(format!("{t} is not a tuple this view reads")))
            })
            .collect::<Result<_, _>>()?;
        let (inst, mut idx) = st
            .ctx
            .instance_and_index(target)
            .map_err(|e| fail(e.to_string()))?;
        if dels.len() != deletions {
            return Err(fail(format!(
                "lists {} tids but reports {deletions}",
                dels.len()
            )));
        }
        if !inst.deletes_target(&dels) {
            return Err(fail("the deletions leave the target in the view".into()));
        }
        // A fresh frontier index over the oracle's own plan counts side
        // effects in O(neighborhood); a tid outside the target's support
        // reaches beyond the frontier, so fall back to a full view scan.
        let actual = if dels.iter().all(|t| idx.insert(t)) {
            idx.side_effect_count()
        } else {
            inst.side_effects(&dels).len()
        };
        if actual != side_effects {
            return Err(fail(format!(
                "reports {side_effects} side effects, the deletions cause {actual}"
            )));
        }
        let view = objective == SolveObjective::View;
        let opt_key = (solvable, st.version, view, target.clone());
        let opt = match optima.get(&opt_key) {
            Some(o) => *o,
            None => {
                let o = optimum(&st.ctx, s.class, objective, target)?;
                optima.insert(opt_key, o);
                o
            }
        };
        let cost = if view { side_effects } else { deletions };
        if cost != opt {
            return Err(fail(format!(
                "cost {cost}, the specialized solver's optimum is {opt}"
            )));
        }
        seen.insert(key);
        checked += 1;
        Ok(())
    };
    for (solvable, objective, target, body) in warm {
        check(&mut states, solvable, objective, target, body)?;
    }
    for r in recs {
        match &r.op {
            Op::Commit(tid) if r.outcome == Outcome::Ok => {
                for (i, st) in states.iter_mut().enumerate() {
                    if let Some(sub) = translate(&w.db, &w.solvables[i].oracle_db, tid) {
                        st.ctx.apply_delete(&BTreeSet::from([sub]));
                        st.version += 1;
                    }
                }
            }
            Op::Solve {
                solvable,
                objective,
                target,
            } if r.outcome == Outcome::Ok => {
                check(&mut states, *solvable, *objective, target, &r.body)?
            }
            _ => {}
        }
    }
    Ok(checked)
}
