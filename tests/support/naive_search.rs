//! The rescan oracle of the exact view-side-effect search: the **same**
//! branch-and-bound as `dap::core::deletion::view_side_effect`'s
//! `run_search` — fail-first witness choice, branches ordered by their
//! side-effect delta, minimal-hitting-set exclusion, strict-improvement
//! bound, node budget — but every side-effect question (each node's count
//! and every branch-ordering delta probe) is a full
//! [`DeletionInstance::side_effect_count`] hypergraph rescan instead of a
//! `WitnessIndex` counter read. Identical traversal ⇒ identical solutions,
//! which `tests/prop_witness_index.rs` asserts.

use dap::core::deletion::view_side_effect::ExactOptions;
use dap::core::{CoreError, Deletion, DeletionInstance, Result};
use dap::relalg::{Database, Query, Tid, Tuple};
use std::collections::BTreeSet;

/// [`dap::core::deletion::view_side_effect::min_view_side_effects`] by
/// per-node rescans.
pub fn min_view_side_effects_naive(
    q: &Query,
    db: &Database,
    target: &Tuple,
    opts: &ExactOptions,
) -> Result<Deletion> {
    let inst = DeletionInstance::build(q, db, target)?;
    let mut state = NaiveState::new(&inst);
    let found = run_search(&mut state, usize::MAX, opts)?;
    let (deletions, _) = found.expect("a hitting set always exists (delete the whole support)");
    let view_side_effects = inst.side_effects(&deletions);
    Ok(Deletion {
        deletions,
        view_side_effects,
    })
}

/// Naive search state: the original per-node cost model — every
/// side-effect question is a full `why.iter()` rescan.
struct NaiveState<'a> {
    inst: &'a DeletionInstance,
    /// Target witnesses as member slots into the sorted support (slot `i`
    /// ↔ `support[i]`), in target-witness order — the slot space and
    /// witness order `WitnessIndex` uses.
    members: Vec<Vec<usize>>,
    current: BTreeSet<Tid>,
}

impl<'a> NaiveState<'a> {
    fn new(inst: &'a DeletionInstance) -> NaiveState<'a> {
        let members = inst
            .target_witnesses
            .iter()
            .map(|w| {
                w.iter()
                    .map(|tid| {
                        inst.support
                            .binary_search(tid)
                            .expect("witness tids are in the support")
                    })
                    .collect()
            })
            .collect();
        NaiveState {
            inst,
            members,
            current: BTreeSet::new(),
        }
    }

    fn side_effect_count(&self) -> usize {
        self.inst.side_effect_count(&self.current)
    }

    fn delta_if_deleted(&mut self, slot: usize) -> usize {
        let before = self.side_effect_count();
        self.insert(slot);
        let after = self.side_effect_count();
        self.remove(slot);
        after - before
    }

    fn insert(&mut self, slot: usize) {
        self.current.insert(self.inst.support[slot].clone());
    }

    fn remove(&mut self, slot: usize) {
        self.current.remove(&self.inst.support[slot]);
    }

    fn target_witness_hit(&self, i: usize) -> bool {
        self.members[i]
            .iter()
            .any(|&s| self.current.contains(&self.inst.support[s]))
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
    state: &mut NaiveState,
    cap: usize,
    opts: &ExactOptions,
) -> Result<Option<(BTreeSet<Tid>, usize)>> {
    let mut ctx = SearchCtx {
        nodes: 0,
        budget: opts.node_budget,
        best: None,
        bound: cap,
    };
    let mut excluded = vec![false; state.inst.support.len()];
    recurse(state, &mut ctx, &mut excluded)?;
    Ok(ctx.best)
}

fn recurse(state: &mut NaiveState, ctx: &mut SearchCtx, excluded: &mut [bool]) -> Result<()> {
    ctx.nodes += 1;
    if ctx.nodes > ctx.budget {
        return Err(CoreError::BudgetExhausted { budget: ctx.budget });
    }
    // Side effects only grow as the deletion set grows — prune at the bound.
    let se = state.side_effect_count();
    if se >= ctx.bound {
        return Ok(());
    }
    // Pick the unhit witness with the fewest available choices (fail-first
    // on width); `None` means the current set is already a hitting set.
    let Some((_, wi)) = pick_witness(state, excluded) else {
        ctx.best = Some((state.current.clone(), se));
        ctx.bound = se; // future solutions must be strictly better
        return Ok(());
    };
    // Order the branch choices by their incremental side-effect delta —
    // fail-first on *cost*: cheap branches first tighten the bound early.
    let members: Vec<usize> = state.members[wi].clone();
    let mut choices: Vec<(usize, usize)> = members
        .into_iter()
        .filter(|&s| !excluded[s])
        .map(|s| (state.delta_if_deleted(s), s))
        .collect();
    choices.sort_unstable();
    let mut locally_excluded = Vec::new();
    for (_, slot) in choices {
        state.insert(slot);
        recurse(state, ctx, excluded)?;
        state.remove(slot);
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
fn pick_witness(state: &NaiveState, excluded: &[bool]) -> Option<(usize, usize)> {
    let mut pick: Option<(usize, usize)> = None;
    for wi in 0..state.members.len() {
        if state.target_witness_hit(wi) {
            continue;
        }
        let avail = state.members[wi].iter().filter(|&&s| !excluded[s]).count();
        if pick.is_none_or(|(a, _)| avail < a) {
            pick = Some((avail, wi));
        }
    }
    pick
}
