//! The **incremental witness-hypergraph index** behind the deletion solvers.
//!
//! [`DeletionInstance::side_effect_count`] rescans every view tuple's witness
//! set (`O(|view| · |witnesses|)` with a set lookup per tuple id) — fine for
//! a single query, ruinous inside a branch-and-bound that asks the question
//! at **every** search node. [`WitnessIndex`] makes the question incremental:
//!
//! * an inverted map tuple-id → (view tuple, witness) *occurrences*,
//! * a per-witness counter of deleted members (a witness is *hit* when the
//!   counter is positive),
//! * a per-view-tuple counter of live (unhit) witnesses (a tuple is *dead*
//!   when it reaches zero), and
//! * running totals of dead non-target tuples and unhit target witnesses,
//!
//! so [`WitnessIndex::insert`] / [`WitnessIndex::remove`] cost
//! `O(occurrences of the tuple id)` and [`WitnessIndex::side_effect_count`] /
//! [`WitnessIndex::deletes_target`] are `O(1)`. The branch-and-bound mutates
//! the index along the recursion — insert on descend, remove on backtrack —
//! instead of rescanning the hypergraph per node.
//!
//! The index is restricted to the **relevant frontier**: view tuples whose
//! *every* witness intersects the target's support. The solvers only ever
//! delete inside the support, and a tuple with a witness disjoint from the
//! support keeps that witness forever — it can never be side-effected — so
//! the frontier is exactly the set of view tuples whose death is possible.
//! This shrinks the index from `|view|` to the target's neighborhood.
//! Consequently the index answers are equivalent to the naive
//! [`DeletionInstance`] scans **for deletion sets drawn from the support**
//! (which is all the solvers ever produce); the differential property tests
//! in `tests/prop_witness_index.rs` pin that equivalence.

use crate::deletion::{Deletion, DeletionInstance};
use dap_provenance::WhyProvenance;
use dap_relalg::{Tid, Tuple};
use std::collections::{BTreeSet, HashMap};

/// A counter-based incremental view of one deletion problem's witness
/// hypergraph (see the module docs). Built once per target (cheaply from a
/// [`crate::deletion::DeletionContext`] skeleton), then mutated in place by
/// the search.
#[derive(Clone, Debug)]
pub struct WitnessIndex {
    /// The target's support, sorted — slot `i` is `tids[i]`.
    tids: Vec<Tid>,
    /// Whether slot `i` is currently deleted.
    deleted: Vec<bool>,
    /// Number of deleted slots.
    deleted_count: usize,
    /// slot → ids of witnesses containing that tuple id (the inverted map).
    occurrences: Vec<Vec<usize>>,
    /// witness id → frontier-tuple id owning it.
    witness_owner: Vec<usize>,
    /// witness id → number of its members currently deleted (> 0 ⇔ hit).
    witness_hits: Vec<usize>,
    /// frontier-tuple id → number of witnesses not yet hit (0 ⇔ dead).
    tuple_alive: Vec<usize>,
    /// The frontier tuples (the target is `tuples[target_tuple]`).
    tuples: Vec<Tuple>,
    /// Index of the target in `tuples`.
    target_tuple: usize,
    /// Running count of dead frontier tuples other than the target.
    dead_other: usize,
    /// Member slots per target witness (parallel to `target_witness_ids`) —
    /// the sets the branch-and-bound branches over, kept eager because
    /// every solve reads them.
    target_members: Vec<Vec<usize>>,
    /// Global witness ids of the target's witnesses.
    target_witness_ids: Vec<usize>,
    /// Retire/encode support (tuple-id map + full witness transpose),
    /// derivable from the eager fields — built lazily on the first
    /// [`WitnessIndex::retire_tuple`] / [`WitnessIndex::in_frontier`] /
    /// ILP-encoding call, so the throwaway per-target stamps of the
    /// one-shot solvers never pay for it.
    retire: Option<Box<RetireSupport>>,
}

/// The lazily-built machinery behind [`WitnessIndex::retire_tuple`] and the
/// `dap_core::ilp` encoder: reverse lookups the counter updates never need.
#[derive(Clone, Debug)]
struct RetireSupport {
    /// Frontier tuple → its id in `tuples` (the patching entry point).
    /// With interned string values a tuple hashes as a few integer ids,
    /// so this map costs no byte-walking on the patch path.
    tuple_ids: HashMap<Tuple, usize>,
    /// witness id → member slots (the transpose of `occurrences`; emptied
    /// per witness when its owner is retired).
    witness_members: Vec<Vec<usize>>,
    /// frontier-tuple id → ids of the witnesses it owns (emptied when the
    /// tuple is retired).
    witnesses_of_tuple: Vec<Vec<usize>>,
}

impl WitnessIndex {
    /// Build the index for `inst` by scanning the whole why-provenance.
    /// [`crate::deletion::DeletionContext::index_for`] builds the identical
    /// index from the shared skeleton without the full-view scan.
    pub fn build(inst: &DeletionInstance) -> WitnessIndex {
        Self::from_candidates(&inst.why, inst, inst.why.tuples())
    }

    /// Build the index considering only `candidates` as possible frontier
    /// members (every view tuple with a witness intersecting the support
    /// must be among them; extra candidates are filtered out).
    pub(crate) fn from_candidates<'a>(
        why: &WhyProvenance,
        inst: &DeletionInstance,
        candidates: impl IntoIterator<Item = &'a Tuple>,
    ) -> WitnessIndex {
        let tids = inst.support.clone();
        // Tid compares pointer-shortcut on interned relation names, so the
        // per-member binary search is integer work, not byte walks.
        let slot_of = |tid: &Tid| tids.binary_search(tid).ok();
        let mut occurrences: Vec<Vec<usize>> = vec![Vec::new(); tids.len()];
        let mut witness_owner = Vec::new();
        let mut witness_hits = Vec::new();
        let mut tuple_alive = Vec::new();
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut target_tuple = 0;
        let mut target_members: Vec<Vec<usize>> = Vec::new();
        let mut target_witness_ids = Vec::new();
        // Scratch: member slots per witness of the current candidate.
        let mut member_slots: Vec<Vec<usize>> = Vec::new();
        'candidates: for t in candidates {
            let is_target = *t == inst.target;
            let Some(witnesses) = why.witnesses_of(t) else {
                continue;
            };
            member_slots.clear();
            for w in witnesses {
                let slots: Vec<usize> = w.iter().filter_map(slot_of).collect();
                if slots.is_empty() {
                    // A witness disjoint from the support survives any
                    // support-only deletion: `t` is outside the frontier.
                    debug_assert!(!is_target, "target witnesses are within the support");
                    continue 'candidates;
                }
                member_slots.push(slots);
            }
            let tuple_id = tuples.len();
            tuples.push(t.clone());
            tuple_alive.push(member_slots.len());
            if is_target {
                target_tuple = tuple_id;
            }
            for slots in member_slots.drain(..) {
                let wid = witness_owner.len();
                witness_owner.push(tuple_id);
                witness_hits.push(0);
                for &slot in &slots {
                    occurrences[slot].push(wid);
                }
                if is_target {
                    target_witness_ids.push(wid);
                    target_members.push(slots);
                }
            }
        }
        debug_assert_eq!(
            target_witness_ids.len(),
            inst.target_witnesses.len(),
            "target must be among the candidates"
        );
        WitnessIndex {
            deleted: vec![false; tids.len()],
            deleted_count: 0,
            occurrences,
            witness_owner,
            witness_hits,
            tuple_alive,
            tuples,
            target_tuple,
            dead_other: 0,
            target_members,
            target_witness_ids,
            retire: None,
            tids,
        }
    }

    /// Build (once) and return the lazily-constructed retire/encode
    /// support. Everything in it is derivable from the eager fields, and
    /// [`WitnessIndex::insert_slot`] / [`WitnessIndex::remove_slot`] never
    /// touch `occurrences`, so the reconstruction is identical whether it
    /// happens at build time or after any number of solves.
    fn retire_support(&mut self) -> &mut RetireSupport {
        if self.retire.is_none() {
            let mut witness_members: Vec<Vec<usize>> = vec![Vec::new(); self.witness_owner.len()];
            for (slot, wids) in self.occurrences.iter().enumerate() {
                for &wid in wids {
                    witness_members[wid].push(slot);
                }
            }
            let mut witnesses_of_tuple: Vec<Vec<usize>> = vec![Vec::new(); self.tuples.len()];
            for (wid, &owner) in self.witness_owner.iter().enumerate() {
                witnesses_of_tuple[owner].push(wid);
            }
            let tuple_ids = self
                .tuples
                .iter()
                .enumerate()
                .map(|(i, t)| (t.clone(), i))
                .collect();
            self.retire = Some(Box::new(RetireSupport {
                tuple_ids,
                witness_members,
                witnesses_of_tuple,
            }));
        }
        self.retire.as_mut().expect("just built")
    }

    /// Whether the lazy retire/encode support has been built (tests pin
    /// that one-shot solves never pay for it).
    #[cfg(test)]
    pub(crate) fn has_retire_support(&self) -> bool {
        self.retire.is_some()
    }

    /// Id of the target within the frontier (for the ILP encoder).
    pub(crate) fn target_id(&self) -> usize {
        self.target_tuple
    }

    /// The frontier tuple with id `id` (for the ILP encoder).
    pub(crate) fn tuple_at(&self, id: usize) -> &Tuple {
        &self.tuples[id]
    }

    /// The member-slot lists of frontier tuple `id`'s witnesses, one list
    /// per witness — empty for a retired tuple (its witnesses are unlinked;
    /// it can never die again). This is the ILP encoder's read path into
    /// the hypergraph; it forces the lazy retire support.
    pub(crate) fn witness_slot_lists(&mut self, id: usize) -> Vec<Vec<usize>> {
        let support = self.retire_support();
        support.witnesses_of_tuple[id]
            .iter()
            .map(|&wid| support.witness_members[wid].clone())
            .collect()
    }

    /// The target's support, sorted. Slot `i` addresses `support()[i]` in
    /// [`WitnessIndex::insert_slot`] / [`WitnessIndex::remove_slot`].
    pub fn support(&self) -> &[Tid] {
        &self.tids
    }

    /// The slot of `tid` in the support, if `tid` is in it.
    pub fn slot_of(&self, tid: &Tid) -> Option<usize> {
        self.tids.binary_search(tid).ok()
    }

    /// Number of frontier view tuples tracked (including the target).
    pub fn frontier_len(&self) -> usize {
        self.tuples.len()
    }

    /// Mark the support slot `slot` deleted: `O(occurrences of the tid)`.
    pub fn insert_slot(&mut self, slot: usize) {
        debug_assert!(!self.deleted[slot], "slot {slot} inserted twice");
        self.deleted[slot] = true;
        self.deleted_count += 1;
        for k in 0..self.occurrences[slot].len() {
            let wid = self.occurrences[slot][k];
            self.witness_hits[wid] += 1;
            if self.witness_hits[wid] == 1 {
                let owner = self.witness_owner[wid];
                self.tuple_alive[owner] -= 1;
                if self.tuple_alive[owner] == 0 && owner != self.target_tuple {
                    self.dead_other += 1;
                }
            }
        }
    }

    /// Undo [`WitnessIndex::insert_slot`]: `O(occurrences of the tid)`.
    pub fn remove_slot(&mut self, slot: usize) {
        debug_assert!(self.deleted[slot], "slot {slot} removed but not deleted");
        self.deleted[slot] = false;
        self.deleted_count -= 1;
        for k in 0..self.occurrences[slot].len() {
            let wid = self.occurrences[slot][k];
            self.witness_hits[wid] -= 1;
            if self.witness_hits[wid] == 0 {
                let owner = self.witness_owner[wid];
                if self.tuple_alive[owner] == 0 && owner != self.target_tuple {
                    self.dead_other -= 1;
                }
                self.tuple_alive[owner] += 1;
            }
        }
    }

    /// Mark `tid` deleted. Returns `false` (a no-op) if `tid` is outside the
    /// support — such a deletion can never help kill the target (whose
    /// witnesses lie entirely inside the support), and the index's answers
    /// are only specified for support-only deletion sets (see the module
    /// docs): a set mixing in out-of-support tids must be evaluated with
    /// the naive [`DeletionInstance`] scans instead.
    pub fn insert(&mut self, tid: &Tid) -> bool {
        match self.slot_of(tid) {
            Some(slot) => {
                self.insert_slot(slot);
                true
            }
            None => false,
        }
    }

    /// Undo [`WitnessIndex::insert`]. Returns `false` if `tid` is outside
    /// the support.
    pub fn remove(&mut self, tid: &Tid) -> bool {
        match self.slot_of(tid) {
            Some(slot) => {
                self.remove_slot(slot);
                true
            }
            None => false,
        }
    }

    /// Number of non-target frontier tuples killed by the current deletion
    /// set — `O(1)`, the quantity §2.1 minimizes.
    pub fn side_effect_count(&self) -> usize {
        self.dead_other
    }

    /// Whether the current deletion set hits every witness of the target —
    /// `O(1)`, the §2.2 feasibility test.
    pub fn deletes_target(&self) -> bool {
        self.tuple_alive[self.target_tuple] == 0
    }

    /// The non-target view tuples killed by the current deletion set
    /// (`O(frontier)` — used once per solution, not per node).
    pub fn side_effects(&self) -> BTreeSet<Tuple> {
        self.tuples
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.target_tuple && self.tuple_alive[*i] == 0)
            .map(|(_, t)| t.clone())
            .collect()
    }

    /// The current deletion set.
    pub fn deleted_tids(&self) -> BTreeSet<Tid> {
        self.tids
            .iter()
            .zip(&self.deleted)
            .filter(|(_, d)| **d)
            .map(|(tid, _)| tid.clone())
            .collect()
    }

    /// The [`Deletion`] that deleting the support `slots` makes, for a
    /// clean index and slots that kill the target: insert them, read the
    /// deleted tids and side effects off the counters, and unwind, leaving
    /// the index clean. Every solver arm ends here.
    pub(crate) fn deletion_of(
        &mut self,
        slots: impl IntoIterator<Item = usize> + Clone,
    ) -> Deletion {
        for slot in slots.clone() {
            self.insert_slot(slot);
        }
        debug_assert!(self.deletes_target(), "a solution hits every witness");
        let sol = Deletion {
            deletions: self.deleted_tids(),
            view_side_effects: self.side_effects(),
        };
        for slot in slots {
            self.remove_slot(slot);
        }
        sol
    }

    /// Number of currently deleted slots.
    pub fn deleted_len(&self) -> usize {
        self.deleted_count
    }

    /// The side-effect increase deleting `slot` would cause, by probing the
    /// counters — `O(occurrences of the tid)`, no hypergraph rescan. This is
    /// the branch-ordering key of the search (fail-first on *cost*, not just
    /// witness width).
    pub fn delta_if_deleted(&mut self, slot: usize) -> usize {
        let before = self.dead_other;
        self.insert_slot(slot);
        let delta = self.dead_other - before;
        self.remove_slot(slot);
        delta
    }

    /// Number of target witnesses (the sets the search must hit).
    pub fn target_witness_count(&self) -> usize {
        self.target_witness_ids.len()
    }

    /// Member slots of target witness `i` (same order as
    /// `DeletionInstance::target_witnesses`).
    pub fn target_witness_members(&self, i: usize) -> &[usize] {
        &self.target_members[i]
    }

    /// Whether target witness `i` is hit by the current deletion set.
    pub fn target_witness_hit(&self, i: usize) -> bool {
        self.witness_hits[self.target_witness_ids[i]] > 0
    }

    /// Whether `t` is one of this index's frontier tuples (retired tuples
    /// still answer `true`; they are inert, not forgotten). Forces the
    /// lazy retire support (the callers — cache patching and the ILP
    /// encoder — are about to use it anyway).
    pub fn in_frontier(&mut self, t: &Tuple) -> bool {
        self.retire_support().tuple_ids.contains_key(t)
    }

    /// Permanently unlink a dead frontier tuple's witnesses, so the tuple
    /// can never again register as a side effect — the **in-place patch**
    /// [`crate::deletion::DeletionContext`] applies to cached per-target
    /// indexes when a serving-loop deletion removes `t` from the view,
    /// instead of re-stamping the index from the touch skeleton. Only
    /// valid on a clean index (no slots currently deleted) and only for
    /// removed tuples whose *own* basis was the only thing the deletion
    /// touched (the context re-stamps in every other case). Retiring the
    /// target, a tuple outside the frontier, or an already-retired tuple
    /// is a no-op returning `false`.
    pub fn retire_tuple(&mut self, t: &Tuple) -> bool {
        debug_assert_eq!(self.deleted_count, 0, "retire requires a clean index");
        let target_tuple = self.target_tuple;
        let support = self.retire_support();
        let Some(&id) = support.tuple_ids.get(t) else {
            return false;
        };
        if id == target_tuple {
            return false;
        }
        let wids = std::mem::take(&mut support.witnesses_of_tuple[id]);
        if wids.is_empty() {
            return false;
        }
        let mut unlink: Vec<(usize, usize)> = Vec::new(); // (slot, wid)
        for wid in wids {
            for &slot in &support.witness_members[wid] {
                unlink.push((slot, wid));
            }
            support.witness_members[wid].clear();
        }
        for (slot, wid) in unlink {
            self.occurrences[slot].retain(|&w| w != wid);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_relalg::{parse_database, parse_query, tuple};

    fn instance() -> DeletionInstance {
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
        DeletionInstance::build(&q, &db, &tuple(["bob", "report"])).unwrap()
    }

    #[test]
    fn build_restricts_to_the_frontier() {
        let inst = instance();
        let idx = WitnessIndex::build(&inst);
        // View: (ann,report), (bob,main), (bob,report). The support is
        // bob's witnesses; (ann,report)'s only witness {UG(ann,staff),
        // GF(staff,report)} intersects it via GF(staff,report), and
        // (bob,main)'s via UG(bob,dev) — all three are in the frontier.
        assert_eq!(idx.frontier_len(), 3);
        assert_eq!(idx.support(), inst.support.as_slice());
        assert_eq!(idx.target_witness_count(), 2);
        assert_eq!(idx.side_effect_count(), 0);
        assert!(!idx.deletes_target());
    }

    #[test]
    fn insert_remove_track_naive_answers() {
        let inst = instance();
        let mut idx = WitnessIndex::build(&inst);
        let both: Vec<Tid> = [
            inst.db
                .tid_of("UserGroup", &tuple(["bob", "staff"]))
                .unwrap(),
            inst.db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap(),
        ]
        .into();
        for tid in &both {
            assert!(idx.insert(tid));
        }
        let deleted: BTreeSet<Tid> = both.iter().cloned().collect();
        assert!(idx.deletes_target());
        assert_eq!(idx.side_effect_count(), inst.side_effect_count(&deleted));
        assert_eq!(idx.side_effects(), inst.side_effects(&deleted));
        assert_eq!(idx.deleted_tids(), deleted);
        // Backtrack fully: the index returns to the empty state.
        for tid in &both {
            assert!(idx.remove(tid));
        }
        assert_eq!(idx.side_effect_count(), 0);
        assert!(!idx.deletes_target());
        assert!(idx.side_effects().is_empty());
        assert_eq!(idx.deleted_len(), 0);
    }

    #[test]
    fn delta_probe_matches_commit() {
        let inst = instance();
        let mut idx = WitnessIndex::build(&inst);
        for slot in 0..idx.support().len() {
            let predicted = idx.delta_if_deleted(slot);
            let before = idx.side_effect_count();
            idx.insert_slot(slot);
            assert_eq!(idx.side_effect_count() - before, predicted);
            idx.remove_slot(slot);
        }
    }

    #[test]
    fn out_of_support_tids_are_ignored() {
        let inst = instance();
        let mut idx = WitnessIndex::build(&inst);
        let outside = inst
            .db
            .tid_of("UserGroup", &tuple(["ann", "staff"]))
            .unwrap();
        assert!(idx.slot_of(&outside).is_none());
        assert!(!idx.insert(&outside));
        assert_eq!(idx.deleted_len(), 0);
    }

    #[test]
    fn retire_tuple_makes_a_frontier_tuple_inert() {
        let inst = instance();
        let mut idx = WitnessIndex::build(&inst);
        let mut fresh = WitnessIndex::build(&inst);
        // Retire (bob, main): deleting UG(bob, dev) must no longer count it.
        assert!(idx.in_frontier(&tuple(["bob", "main"])));
        assert!(idx.retire_tuple(&tuple(["bob", "main"])));
        assert!(
            !idx.retire_tuple(&tuple(["bob", "main"])),
            "second retire is a no-op"
        );
        assert!(!idx.retire_tuple(&tuple(["zz", "zz"])), "not in frontier");
        assert!(
            !idx.retire_tuple(&tuple(["bob", "report"])),
            "the target never retires"
        );
        let dev = inst.db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        idx.insert(&dev);
        fresh.insert(&dev);
        assert_eq!(fresh.side_effect_count(), 1, "(bob, main) dies");
        assert_eq!(
            idx.side_effect_count(),
            0,
            "retired tuples are never side effects"
        );
        assert!(idx.side_effects().is_empty());
        assert_eq!(idx.deletes_target(), fresh.deletes_target());
        idx.remove(&dev);
        assert_eq!(idx.side_effect_count(), 0);
    }

    #[test]
    fn retire_support_is_lazy() {
        let inst = instance();
        let mut idx = WitnessIndex::build(&inst);
        assert!(!idx.has_retire_support(), "never built eagerly");
        // A full solve-style workout touches only the eager structures.
        for slot in 0..idx.support().len() {
            let _ = idx.delta_if_deleted(slot);
            idx.insert_slot(slot);
        }
        let _ = (
            idx.side_effect_count(),
            idx.side_effects(),
            idx.deleted_tids(),
        );
        for slot in (0..idx.support().len()).rev() {
            idx.remove_slot(slot);
        }
        let _: usize = (0..idx.target_witness_count())
            .map(|i| idx.target_witness_members(i).len())
            .sum();
        assert!(
            !idx.has_retire_support(),
            "one-shot per-target stamps never pay for the transpose"
        );
        // The first retire builds it, with identical behavior to an eager
        // build (pinned by `retire_tuple_makes_a_frontier_tuple_inert`).
        assert!(idx.retire_tuple(&tuple(["bob", "main"])));
        assert!(idx.has_retire_support());
    }

    #[test]
    fn encoder_accessors_expose_the_hypergraph() {
        let inst = instance();
        let mut idx = WitnessIndex::build(&inst);
        let target = idx.target_id();
        assert_eq!(idx.tuple_at(target), &tuple(["bob", "report"]));
        // The target's slot lists via the lazy path equal the eager ones.
        let via_lazy = idx.witness_slot_lists(target);
        let via_eager: Vec<Vec<usize>> = (0..idx.target_witness_count())
            .map(|i| idx.target_witness_members(i).to_vec())
            .collect();
        assert_eq!(via_lazy, via_eager);
        // Retiring a tuple empties its lists.
        let (main_id, _) = (0..idx.frontier_len())
            .map(|i| (i, idx.tuple_at(i).clone()))
            .find(|(_, t)| *t == tuple(["bob", "main"]))
            .expect("in frontier");
        assert!(!idx.witness_slot_lists(main_id).is_empty());
        assert!(idx.retire_tuple(&tuple(["bob", "main"])));
        assert!(idx.witness_slot_lists(main_id).is_empty());
    }

    #[test]
    fn target_witness_accessors_follow_hits() {
        let inst = instance();
        let mut idx = WitnessIndex::build(&inst);
        assert!((0..idx.target_witness_count()).all(|i| !idx.target_witness_hit(i)));
        // Deleting GF(staff,report) hits exactly the staff witness.
        let staff_file = inst
            .db
            .tid_of("GroupFile", &tuple(["staff", "report"]))
            .unwrap();
        idx.insert(&staff_file);
        let hit: Vec<bool> = (0..idx.target_witness_count())
            .map(|i| idx.target_witness_hit(i))
            .collect();
        assert_eq!(hit.iter().filter(|h| **h).count(), 1);
        // The hit witness contains the deleted slot.
        let slot = idx.slot_of(&staff_file).unwrap();
        let wi = hit.iter().position(|h| *h).unwrap();
        assert!(idx.target_witness_members(wi).contains(&slot));
    }
}
