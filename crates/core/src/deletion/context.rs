//! One materialization of `(Q, S)` serving many deletion targets — and,
//! since the context's annotated view is **maintained**, surviving the
//! deletions it recommends.
//!
//! Every deletion solver needs the why-provenance of the view.
//! [`DeletionContext`] registers its query in a
//! [`PlanRegistry<WitnessesAnn>`] **once**, derives the why-provenance and
//! the tuple-id → view-tuple *touch skeleton* of the witness hypergraph
//! from the registered view, and then stamps out per-target
//! [`DeletionInstance`]s ([`DeletionContext::for_target`]) and
//! frontier-restricted [`WitnessIndex`]es ([`DeletionContext::index_for`])
//! in time proportional to the target's neighborhood, not the view.
//!
//! [`DeletionContext::solve`] is the one place a deletion solve is routed.
//! The context reads its query's dichotomy class once, at build, and each
//! solve runs that class's arm on the target's cached index: the whole
//! support for SPU (Thms 2.3 / 2.8), the component scan for SJ
//! (Thms 2.4 / 2.9), the min node cut for chain joins under the source
//! objective (Thm 2.6), and the exact searches for everything else. The
//! CLI, the one-shot dispatchers in [`crate::dichotomy`] and `dap serve`
//! all solve through it. The uncached `&self` methods
//! ([`DeletionContext::min_view_side_effects`],
//! [`DeletionContext::min_source_deletion`],
//! [`DeletionContext::spu_view_deletion`],
//! [`DeletionContext::chain_min_source_deletion`]) stamp a fresh index and
//! run the same arm functions; the free functions in
//! [`crate::deletion::view_side_effect`] and
//! [`crate::deletion::source_side_effect`] build a context for their single
//! target.
//!
//! The registry is what turns the context from a per-query calculator into
//! a serving loop: after a solver commits a deletion, the context pushes it
//! through the registry in `O(affected)`, patches the why-provenance and
//! the touch skeleton from the returned [`ViewDelta`], and the next target
//! is solved against the *updated* view — no re-evaluation, no context
//! rebuild. A serving loop is `solve`, then `apply_delete`, per target.
//!
//! The registry is either the context's own or shared:
//!
//! * [`DeletionContext::new`] builds a private one-query registry, and
//!   [`DeletionContext::apply_delete`] commits through it;
//! * [`DeletionContext::new_in_registry`] registers the query in a
//!   caller's [`PlanRegistry`] — α-equivalent operator subtrees are shared
//!   with every other registered query, and one registry `delete_sources`
//!   push maintains them all. [`DeletionContext::apply_delete_in`] commits
//!   through the registry and [`DeletionContext::sync_in`] drains deltas
//!   other contexts committed, so any number of serving loops stay
//!   coherent over one shared DAG.
//!
//! Both kinds commit the same way: `apply_delete` is `apply_delete_in` on
//! the private registry, and every context patches itself from its
//! query's subscription stream.

use crate::deletion::chain::chain_cut_on;
use crate::deletion::index::WitnessIndex;
use crate::deletion::source_side_effect::min_source_deletion_on;
use crate::deletion::view_side_effect::{min_view_side_effects_on, sj_on, spu_on, ExactOptions};
use crate::deletion::{Deletion, DeletionInstance, Objective};
use crate::dichotomy::SolverKind;
use crate::error::{CoreError, Result};
use dap_provenance::{WhyProvenance, Witness, WitnessesAnn};
use dap_relalg::{
    detect_chain_join, ChainJoin, Database, OpFootprint, ParPool, PlanRegistry, Query, QueryId,
    Schema, SubscriberId, Tid, Tuple, ViewDelta, BUILD_GRAIN,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Most per-target [`WitnessIndex`]es the serving-loop cache retains (see
/// [`DeletionContext::cache_index`]). Enough for any realistic hot set of
/// repeat targets; prevents one-pass sweeps over huge views from
/// accumulating an index per view tuple.
const MAX_CACHED_INDEXES: usize = 256;

/// The dichotomy class of a context's query, read once at build: which
/// arm [`DeletionContext::solve`] runs. The classes are checked in this
/// order, so a pure join chain routes as SJ.
#[derive(Clone, Debug)]
enum Route {
    /// No join, no rename: SPU (Thms 2.3 / 2.8).
    Spu,
    /// No projection, no union: SJ (Thms 2.4 / 2.9).
    Sj,
    /// A chain join (Thm 2.6 under the source objective).
    Chain(ChainJoin),
    /// Every other query: the NP-hard classes.
    Other,
}

impl Route {
    fn of(query: &Query, db: &Database) -> Route {
        let fp = OpFootprint::of(query);
        if !fp.join && !fp.rename {
            Route::Spu
        } else if !fp.project && !fp.union_ {
            Route::Sj
        } else if let Some(chain) = detect_chain_join(query, &db.catalog()) {
            Route::Chain(chain)
        } else {
            Route::Other
        }
    }
}

/// The view skeleton every context derives from its annotated view at
/// build time: the why-provenance plus the inverted tid → view-tuple touch
/// index (see the matching [`DeletionContext`] fields).
struct Skeleton {
    why: Arc<WhyProvenance>,
    tuples: Vec<Tuple>,
    alive: Vec<bool>,
    index_of: HashMap<Tuple, usize>,
    touch_of: Vec<BTreeSet<Tid>>,
    touching: HashMap<Tid, Vec<usize>>,
}

/// The shared substrate of all deletion problems over one `(Q, S)`: the
/// query's registration in the registry that maintains its annotated
/// view, the why-provenance read off that view, and the inverted skeleton
/// used to cut per-target frontiers out of the hypergraph without
/// rescanning the view.
///
/// Tuple ids always refer to the database the context was built over —
/// applied deletions accumulate in [`DeletionContext::committed`] and never
/// renumber anything.
#[derive(Clone, Debug)]
pub struct DeletionContext {
    query: Arc<Query>,
    db: Arc<Database>,
    /// The context's query in the registry whose `delete_sources` keeps
    /// the annotated view (and hence everything below) current.
    id: QueryId,
    /// The context's subscription on `id`, drained by
    /// [`DeletionContext::sync_in`]; it closes when `id` is unregistered.
    sub: SubscriberId,
    /// The private one-query registry [`DeletionContext::new`] builds;
    /// `None` when the view lives in a caller's shared registry
    /// ([`DeletionContext::new_in_registry`]).
    own: Option<PlanRegistry<WitnessesAnn>>,
    why: Arc<WhyProvenance>,
    /// View tuples in why-provenance order (indexed by the skeleton).
    /// Slots are stable; deletions tombstone via `alive`.
    tuples: Vec<Tuple>,
    /// Liveness per skeleton slot (false once a deletion removed it).
    alive: Vec<bool>,
    /// View tuple → skeleton slot.
    index_of: HashMap<Tuple, usize>,
    /// Current support of each view tuple's witness basis (used to diff
    /// `touching` when a deletion changes a basis).
    touch_of: Vec<BTreeSet<Tid>>,
    /// tuple id → slots of view tuples with a witness containing that id.
    /// The *index skeleton*: built once, patched additively on deletion
    /// (entries may go stale — dead or no-longer-touching slots are
    /// filtered on read — but are never missing).
    touching: HashMap<Tid, Vec<usize>>,
    /// Every source tuple deleted through this context so far, shared
    /// with the instances stamped from it (commits copy it only while an
    /// instance still holds the old snapshot).
    committed: Arc<BTreeSet<Tid>>,
    /// The arm [`DeletionContext::solve`] runs.
    route: Route,
    /// Per-target [`WitnessIndex`]es kept warm across serving-loop turns
    /// ([`DeletionContext::solve`] and the ILP turns):
    /// [`DeletionContext::apply_delete`] patches each cached index in
    /// place when it can ([`WitnessIndex::retire_tuple`]) and evicts it
    /// when the deletion touched the index's structure, so repeat targets
    /// skip the re-stamp from the touch skeleton entirely.
    index_cache: HashMap<Tuple, WitnessIndex>,
}

impl DeletionContext {
    /// Materialize the context over a private one-query registry: one
    /// annotated build plus one pass over the witness lists. Both are
    /// one-time builds and shard over the process-default [`ParPool`] once
    /// the input crosses the build grain; the context is identical for
    /// every pool size.
    pub fn new(query: &Query, db: &Database) -> Result<DeletionContext> {
        let mut reg = PlanRegistry::new_shared(Arc::new(db.clone()));
        let mut ctx = DeletionContext::registered(&mut reg, Arc::new(query.clone()))?;
        ctx.own = Some(reg);
        Ok(ctx)
    }

    /// Materialize a context **inside a shared-plan registry** instead of
    /// over a private one: registers `query` in `reg` (sharing every
    /// α-equivalent operator subtree with the queries already there),
    /// subscribes to its delta stream, and reads the skeleton off the
    /// registered view. Deletions the registry already committed are
    /// inherited, so the context starts on the current (deleted-from)
    /// database exactly like a late-joining subscriber.
    ///
    /// Commits go through [`DeletionContext::apply_delete_in`]; after
    /// *another* context (or the registry user directly) commits, call
    /// [`DeletionContext::sync_in`] to drain the pending deltas before the
    /// next solve.
    pub fn new_in_registry(
        reg: &mut PlanRegistry<WitnessesAnn>,
        query: &Query,
    ) -> Result<DeletionContext> {
        DeletionContext::registered(reg, Arc::new(query.clone()))
    }

    /// Register `query` in `reg`, subscribe to its delta stream, and read
    /// the skeleton off the registered view.
    fn registered(
        reg: &mut PlanRegistry<WitnessesAnn>,
        query: Arc<Query>,
    ) -> Result<DeletionContext> {
        let id = reg.register(&query)?;
        let sub = reg
            .subscribe_session(id)
            .expect("a just-registered query accepts subscriptions");
        let route = Route::of(&query, reg.db());
        let sk = DeletionContext::build_skeleton(
            reg.query_schema(id).clone(),
            reg.iter_query(id).collect(),
            reg.pool(),
        );
        Ok(DeletionContext {
            query,
            db: reg.db().clone(),
            id,
            sub,
            own: None,
            why: sk.why,
            tuples: sk.tuples,
            alive: sk.alive,
            index_of: sk.index_of,
            touch_of: sk.touch_of,
            touching: sk.touching,
            committed: Arc::new(reg.committed().clone()),
            route,
            index_cache: HashMap::new(),
        })
    }

    /// Flatten an annotated view into the context's skeleton: the
    /// why-provenance rows, the slot-indexed tuple list, and the inverted
    /// tid → slot touch index. The per-tuple witness clones and touch-set
    /// flattening shard on `pool`; assembly stays sequential in view
    /// order, so the skeleton is identical for every pool size.
    fn build_skeleton(
        schema: Schema,
        entries: Vec<(&Tuple, &WitnessesAnn)>,
        pool: ParPool,
    ) -> Skeleton {
        // Parallel: per-tuple witness clones and touch-set flattening. A
        // Tid clone is a name-refcount bump, and the interned name layout
        // makes the BTreeSet's Tid compares pointer-shortcut integer work
        // rather than byte walks.
        let prepared: Vec<(Tuple, Vec<Witness>, BTreeSet<Tid>)> =
            pool.par_ranges(entries.len(), BUILD_GRAIN, |range| {
                range
                    .map(|i| {
                        let (t, ann) = entries[i];
                        let touch: BTreeSet<Tid> = ann.0.iter().flatten().cloned().collect();
                        (t.clone(), ann.0.clone(), touch)
                    })
                    .collect()
            });
        drop(entries);
        // Sequential: skeleton and why-provenance assembly in view order.
        // `touching` is sized by the total touch count (an upper bound on
        // its distinct tids) so the build never rehashes mid-loop.
        let touch_total: usize = prepared.iter().map(|(_, _, touch)| touch.len()).sum();
        let mut tuples = Vec::with_capacity(prepared.len());
        let mut index_of = HashMap::with_capacity(prepared.len());
        let mut touch_of = Vec::with_capacity(prepared.len());
        let mut touching: HashMap<Tid, Vec<usize>> = HashMap::with_capacity(touch_total);
        let mut why_rows = Vec::with_capacity(prepared.len());
        for (i, (t, ws, touch)) in prepared.into_iter().enumerate() {
            tuples.push(t.clone());
            index_of.insert(t.clone(), i);
            for tid in &touch {
                touching.entry(tid.clone()).or_default().push(i);
            }
            touch_of.push(touch);
            why_rows.push((t, ws));
        }
        let why = Arc::new(WhyProvenance::from_parts(schema, why_rows));
        let alive = vec![true; tuples.len()];
        Skeleton {
            why,
            tuples,
            alive,
            index_of,
            touch_of,
            touching,
        }
    }

    /// The shared query.
    pub fn query(&self) -> &Arc<Query> {
        &self.query
    }

    /// The shared database the context was built over. Applied deletions
    /// are **not** re-packed into it — they accumulate in
    /// [`DeletionContext::committed`], keeping every [`Tid`] stable.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The shared why-provenance of the current (maintained) view.
    pub fn why(&self) -> &Arc<WhyProvenance> {
        &self.why
    }

    /// The id this context's query is registered under in a caller's
    /// shared [`PlanRegistry`]; `None` when the context owns its private
    /// registry (the registration lives and dies with the context).
    pub fn registry_query(&self) -> Option<QueryId> {
        self.own.is_none().then_some(self.id)
    }

    /// Every source tuple deleted through this context so far.
    pub fn committed(&self) -> &BTreeSet<Tid> {
        &self.committed
    }

    /// Number of per-target indexes currently kept warm by
    /// [`DeletionContext::solve`] and the ILP turns (diagnostics and tests).
    pub fn cached_index_count(&self) -> usize {
        self.index_cache.len()
    }

    /// Whether `t` is in the current view.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.why.witnesses_of(t).is_some()
    }

    /// Number of tuples in the current view.
    pub fn view_len(&self) -> usize {
        self.why.len()
    }

    /// Commit a source deletion: push it through the context's private
    /// registry (`O(affected)`), then patch the why-provenance and the
    /// touch skeleton from the resulting [`ViewDelta`]. View tuples whose
    /// last witness died disappear; tuples whose basis changed (it can
    /// *grow* — a deletion may un-absorb a previously non-minimal witness)
    /// get their new basis and any new skeleton edges. Unknown or already
    /// deleted tids are no-ops. Returns the view delta.
    ///
    /// # Panics
    ///
    /// On a registry-backed context — the view lives in the caller's
    /// registry, so commits must go through
    /// [`DeletionContext::apply_delete_in`].
    pub fn apply_delete(&mut self, tids: &BTreeSet<Tid>) -> ViewDelta {
        let mut reg = self
            .own
            .take()
            .expect("apply_delete on a registry-backed context; use apply_delete_in");
        let delta = self.apply_delete_in(&mut reg, tids);
        self.own = Some(reg);
        delta
    }

    /// [`DeletionContext::apply_delete`] for a **registry-backed** context:
    /// push `tids` through the shared [`PlanRegistry`] (maintaining *every*
    /// registered query in one pass), then drain and patch this context's
    /// pending deltas — including the one this very commit produced.
    /// Returns this context's own view delta.
    ///
    /// # Panics
    ///
    /// On a context that owns its registry — use
    /// [`DeletionContext::apply_delete`].
    pub fn apply_delete_in(
        &mut self,
        reg: &mut PlanRegistry<WitnessesAnn>,
        tids: &BTreeSet<Tid>,
    ) -> ViewDelta {
        let id = self
            .registry_query()
            .expect("apply_delete_in on a context that owns its registry; use apply_delete");
        let tid_vec: Vec<Tid> = tids.iter().cloned().collect();
        let mut own = ViewDelta::default();
        for (q, d) in reg.delete_sources(&tid_vec) {
            if q == id {
                own = d;
            }
        }
        // A no-op batch may not reach the subscription, but the registry
        // still records it for future registrations — mirror that here.
        Arc::make_mut(&mut self.committed).extend(tids.iter().cloned());
        self.sync_in(reg);
        own
    }

    /// Drain everything committed through the registry since this context
    /// last synced and patch the skeleton entry by entry, in commit order.
    /// Call after *another* context (or the registry user directly) pushed
    /// deletions; [`DeletionContext::apply_delete_in`] syncs implicitly.
    /// A no-op when nothing is pending.
    ///
    /// # Panics
    ///
    /// On a context that owns its registry — nothing else commits to it,
    /// so there is nothing to drain.
    pub fn sync_in(&mut self, reg: &mut PlanRegistry<WitnessesAnn>) {
        let id = self
            .registry_query()
            .expect("sync_in on a context that owns its registry; nothing to drain");
        for (tids, delta) in reg.drain_session(self.sub) {
            let tid_set: BTreeSet<Tid> = tids.into_iter().collect();
            // Bases are read at their *final* value: a tuple re-based by
            // this entry but removed by a later pending one reads `None`
            // and is skipped — the removal entry patches it out.
            let changed_ws: Vec<Option<Vec<Witness>>> = delta
                .changed
                .iter()
                .map(|t| reg.annotation_of(id, t).map(|a| a.0.clone()))
                .collect();
            self.patch_view(&tid_set, &delta, changed_ws);
        }
    }

    /// The context half of a commit: patch the why-provenance,
    /// liveness, and touch skeleton from one [`ViewDelta`], fold `tids`
    /// into [`DeletionContext::committed`], and carry the cached indexes
    /// across. `changed_ws` holds the post-deletion witness basis for each
    /// entry of `delta.changed` in order (`None` = the tuple is already
    /// dead in the registry — a later pending delta removes it — so its
    /// basis patch is skipped).
    fn patch_view(
        &mut self,
        tids: &BTreeSet<Tid>,
        delta: &ViewDelta,
        changed_ws: Vec<Option<Vec<Witness>>>,
    ) {
        // Instances stamped earlier hold clones of the Arc; make_mut keeps
        // them on the old snapshot and patches ours in place when unique.
        let why = Arc::make_mut(&mut self.why);
        for t in &delta.removed {
            let i = self.index_of[t];
            self.alive[i] = false;
            why.remove_tuple(t);
        }
        for (t, ws) in delta.changed.iter().zip(changed_ws) {
            let Some(ws) = ws else { continue };
            let i = self.index_of[t];
            let touch: BTreeSet<Tid> = ws.iter().flatten().cloned().collect();
            for tid in touch.difference(&self.touch_of[i]) {
                self.touching.entry(tid.clone()).or_default().push(i);
            }
            self.touch_of[i] = touch;
            why.set_witnesses(t, ws);
        }
        Arc::make_mut(&mut self.committed).extend(tids.iter().cloned());
        self.patch_index_cache(delta, tids);
    }

    /// Carry the cached per-target indexes across a committed deletion:
    /// **patch in place** where the delta provably left the index's
    /// structure intact, evict otherwise (the next solve re-stamps). The
    /// case analysis leans on one fact: a view tuple whose
    /// basis survives a deletion *unchanged* has no witness containing a
    /// deleted tid — so if the cached target itself is untouched, its
    /// support and witness sets are untouched, and the only in-index
    /// effect a removal can have is a frontier tuple dying outright
    /// ([`WitnessIndex::retire_tuple`]). Re-based (changed) tuples can
    /// enter, leave, or rewire the frontier, so any changed tuple that
    /// touches an index's support — or already sits in its frontier —
    /// evicts it.
    fn patch_index_cache(&mut self, delta: &ViewDelta, tids: &BTreeSet<Tid>) {
        if self.index_cache.is_empty() {
            return;
        }
        if delta.is_empty() {
            return; // the deletion touched nothing the view derives from
        }
        let touch_of = &self.touch_of;
        let index_of = &self.index_of;
        // The changed tuples' updated touch sets (just written above).
        let changed: Vec<(&Tuple, &BTreeSet<Tid>)> = delta
            .changed
            .iter()
            .map(|t| (t, &touch_of[index_of[t]]))
            .collect();
        self.index_cache.retain(|target, idx| {
            // The target itself was removed or re-based: support and
            // witnesses changed. (Both delta lists are sorted ascending.)
            if delta.removed.binary_search(target).is_ok()
                || delta.changed.binary_search(target).is_ok()
            {
                return false;
            }
            // Defensive: a committed tid inside the support implies the
            // target's basis changed (covered above, but cheap to check).
            if tids.iter().any(|tid| idx.slot_of(tid).is_some()) {
                return false;
            }
            // A re-based tuple touching the support may have entered or
            // rewired this index's frontier.
            for (t, touch) in &changed {
                if idx.in_frontier(t) || idx.support().iter().any(|tid| touch.contains(tid)) {
                    return false;
                }
            }
            // Removed tuples can only leave: retire them in place.
            for t in &delta.removed {
                idx.retire_tuple(t);
            }
            true
        });
    }

    /// Take `target`'s cached index (stamping a fresh one from the
    /// skeleton on a miss); pair with [`DeletionContext::cache_index`]
    /// after a solve leaves it clean.
    pub(crate) fn take_index(&mut self, target: &Tuple) -> Result<WitnessIndex> {
        if let Some(idx) = self.index_cache.remove(target) {
            debug_assert_eq!(idx.deleted_len(), 0, "cached indexes are clean");
            return Ok(idx);
        }
        let (_, idx) = self.instance_and_index(target)?;
        Ok(idx)
    }

    /// Return a clean index to the cache for the next turn. The cache is
    /// bounded at [`MAX_CACHED_INDEXES`] entries: once full, inserting a
    /// *new* target displaces an arbitrary resident entry, so the cache
    /// tracks the current working set instead of pinning the first
    /// [`MAX_CACHED_INDEXES`] targets forever (serving-loop commits free
    /// slots too — a deleted target's entry is evicted by the apply
    /// patch). Which entry is displaced never affects results: a miss
    /// only costs a re-stamp. A one-pass sweep over a huge view therefore
    /// cannot pin `O(view · frontier)` memory in the context.
    pub(crate) fn cache_index(&mut self, target: &Tuple, idx: WitnessIndex) {
        debug_assert_eq!(idx.deleted_len(), 0, "only clean indexes are cached");
        if self.index_cache.len() >= MAX_CACHED_INDEXES && !self.index_cache.contains_key(target) {
            if let Some(victim) = self.index_cache.keys().next().cloned() {
                self.index_cache.remove(&victim);
            }
        }
        self.index_cache.insert(target.clone(), idx);
    }

    /// Solve the deletion problem for `target` under `objective`, routed
    /// by the query's dichotomy class (decided once, at build):
    ///
    /// * SPU: the whole support, optimal for both objectives (Thms 2.3,
    ///   2.8);
    /// * SJ: the component scan, optimal for both objectives (Thms 2.4,
    ///   2.9);
    /// * chain join, source objective: the min node cut (Thm 2.6);
    /// * anything else: the exact branch-and-bound for the view objective,
    ///   the exact hitting set for the source objective, both capped at
    ///   `opts.node_budget` nodes.
    ///
    /// Runs on the target's cached [`WitnessIndex`] (stamping one on a
    /// miss) and returns it to the cache clean. Errors with
    /// [`CoreError::TargetNotInView`] when the current view lacks the
    /// target and [`CoreError::BudgetExhausted`] when an exact arm runs
    /// out of nodes.
    pub fn solve(
        &mut self,
        target: &Tuple,
        objective: Objective,
        opts: &ExactOptions,
    ) -> Result<(Deletion, SolverKind)> {
        let mut idx = self.take_index(target)?;
        // A budget abort leaves the index dirty: `?` drops it, and the
        // next solve re-stamps from the skeleton.
        let solved = match (&self.route, objective) {
            (Route::Spu, _) => (spu_on(&mut idx), SolverKind::Spu),
            (Route::Sj, _) => (sj_on(&mut idx), SolverKind::Sj),
            (Route::Chain(chain), Objective::Source) => {
                (chain_cut_on(chain, &mut idx), SolverKind::ChainMinCut)
            }
            (_, Objective::View) => (
                min_view_side_effects_on(&mut idx, opts)?,
                SolverKind::ExactSearch,
            ),
            (_, Objective::Source) => (
                min_source_deletion_on(&mut idx, opts)?,
                SolverKind::ExactSearch,
            ),
        };
        self.cache_index(target, idx);
        Ok(solved)
    }

    /// Stamp out the [`DeletionInstance`] for `target`, sharing the query,
    /// database, and why-provenance — no recomputation, no deep clones.
    /// Errors if `target` is not in the (current) view.
    pub fn for_target(&self, target: &Tuple) -> Result<DeletionInstance> {
        let target_witnesses = self
            .why
            .witnesses_of(target)
            .ok_or_else(|| CoreError::TargetNotInView {
                tuple: target.clone(),
            })?
            .to_vec();
        let support: BTreeSet<Tid> = target_witnesses.iter().flatten().cloned().collect();
        Ok(DeletionInstance {
            query: self.query.clone(),
            db: self.db.clone(),
            target: target.clone(),
            why: self.why.clone(),
            target_witnesses,
            support: support.into_iter().collect(),
            committed: Arc::clone(&self.committed),
        })
    }

    /// Build the frontier-restricted [`WitnessIndex`] for an instance
    /// stamped from this context, visiting only view tuples the skeleton
    /// says touch the support (identical to [`WitnessIndex::build`], built
    /// in `O(neighborhood)` instead of `O(|view|)`). Stale skeleton
    /// entries — dead tuples, or tuples whose patched basis no longer
    /// touches the tid — are filtered here and by the index build.
    pub fn index_for(&self, inst: &DeletionInstance) -> WitnessIndex {
        WitnessIndex::from_candidates(&self.why, inst, self.candidates_touching(&inst.support))
    }

    /// The alive view tuples with at least one witness touching `support`,
    /// read off the touch skeleton in view order — the candidate frontier
    /// shared by [`DeletionContext::index_for`] and the `dap_core::ilp`
    /// encoder. Stale skeleton entries (dead tuples) are filtered here;
    /// tuples whose patched basis no longer touches the tid are filtered
    /// by the consumers' witness scans.
    pub(crate) fn candidates_touching<'s>(
        &self,
        support: impl IntoIterator<Item = &'s Tid>,
    ) -> Vec<&Tuple> {
        let mut candidate_ids: Vec<usize> = support
            .into_iter()
            .filter_map(|tid| self.touching.get(tid))
            .flatten()
            .copied()
            .filter(|&i| self.alive[i])
            .collect();
        candidate_ids.sort_unstable();
        candidate_ids.dedup();
        candidate_ids.into_iter().map(|i| &self.tuples[i]).collect()
    }

    /// Instance and index for `target` in one call.
    pub fn instance_and_index(&self, target: &Tuple) -> Result<(DeletionInstance, WitnessIndex)> {
        let inst = self.for_target(target)?;
        let idx = self.index_for(&inst);
        Ok((inst, idx))
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
    fn for_target_matches_fresh_build_on_every_view_tuple() {
        let (q, db) = fixture();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        for t in dap_relalg::eval(&q, &db).unwrap().tuples.clone() {
            let stamped = ctx.for_target(&t).unwrap();
            let fresh = DeletionInstance::build(&q, &db, &t).unwrap();
            assert_eq!(stamped.target_witnesses, fresh.target_witnesses, "{t}");
            assert_eq!(stamped.support, fresh.support, "{t}");
            assert_eq!(*stamped.why, *fresh.why, "{t}");
            assert_eq!(stamped.committed, fresh.committed, "{t}");
        }
    }

    #[test]
    fn for_target_rejects_missing_tuple() {
        let (q, db) = fixture();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        assert!(matches!(
            ctx.for_target(&tuple(["zz", "zz"])).unwrap_err(),
            CoreError::TargetNotInView { .. }
        ));
    }

    #[test]
    fn skeleton_index_equals_full_scan_index() {
        let (q, db) = fixture();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        for t in dap_relalg::eval(&q, &db).unwrap().tuples.clone() {
            let inst = ctx.for_target(&t).unwrap();
            let mut via_skeleton = ctx.index_for(&inst);
            let mut via_scan = WitnessIndex::build(&inst);
            assert_eq!(via_skeleton.support(), via_scan.support());
            assert_eq!(via_skeleton.frontier_len(), via_scan.frontier_len());
            // Exercise both: every single-tid deletion agrees.
            for slot in 0..via_scan.support().len() {
                via_skeleton.insert_slot(slot);
                via_scan.insert_slot(slot);
                assert_eq!(
                    via_skeleton.side_effect_count(),
                    via_scan.side_effect_count()
                );
                assert_eq!(via_skeleton.side_effects(), via_scan.side_effects());
                assert_eq!(via_skeleton.deletes_target(), via_scan.deletes_target());
                via_skeleton.remove_slot(slot);
                via_scan.remove_slot(slot);
            }
        }
    }

    #[test]
    fn context_shares_one_why_across_targets() {
        let (q, db) = fixture();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        let a = ctx.for_target(&tuple(["bob", "report"])).unwrap();
        let b = ctx.for_target(&tuple(["bob", "main"])).unwrap();
        assert!(Arc::ptr_eq(&a.why, &b.why));
        assert!(Arc::ptr_eq(&a.query, &b.query));
        assert!(Arc::ptr_eq(&a.db, &b.db));
        assert!(Arc::ptr_eq(&a.committed, &ctx.committed));
        assert!(Arc::ptr_eq(&a.committed, &b.committed));
    }

    #[test]
    fn apply_delete_patches_view_and_skeleton() {
        let (q, db) = fixture();
        let mut ctx = DeletionContext::new(&q, &db).unwrap();
        assert_eq!(ctx.view_len(), 3);
        let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        let delta = ctx.apply_delete(&BTreeSet::from([dev.clone()]));
        // (bob, main) loses its only witness; (bob, report) drops to one.
        assert_eq!(delta.removed, vec![tuple(["bob", "main"])]);
        assert_eq!(delta.changed, vec![tuple(["bob", "report"])]);
        assert!(!ctx.contains(&tuple(["bob", "main"])));
        assert_eq!(ctx.view_len(), 2);
        assert_eq!(ctx.committed(), &BTreeSet::from([dev]));
        assert_eq!(
            ctx.why()
                .witnesses_of(&tuple(["bob", "report"]))
                .unwrap()
                .len(),
            1
        );
        // The patched context agrees with a context built from scratch on
        // the deleted-from database (view tuples are renumbering-free).
        let db2 = db.without(ctx.committed());
        let fresh = DeletionContext::new(&q, &db2).unwrap();
        assert_eq!(ctx.view_len(), fresh.view_len());
        for t in dap_relalg::eval(&q, &db2).unwrap().tuples {
            assert_eq!(
                ctx.why().witnesses_of(&t).unwrap().len(),
                fresh.why().witnesses_of(&t).unwrap().len(),
                "witness multiplicity for {t}"
            );
        }
    }

    #[test]
    fn registry_backed_context_matches_owned_context() {
        let (q, db) = fixture();
        let mut owned = DeletionContext::new(&q, &db).unwrap();
        let mut reg = PlanRegistry::<WitnessesAnn>::new(&db);
        let mut shared = DeletionContext::new_in_registry(&mut reg, &q).unwrap();
        assert!(owned.registry_query().is_none());
        assert!(shared.registry_query().is_some());
        assert_eq!(shared.view_len(), owned.view_len());
        for step in [
            BTreeSet::from([db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap()]),
            BTreeSet::from([db.tid_of("GroupFile", &tuple(["staff", "report"])).unwrap()]),
        ] {
            let d_owned = owned.apply_delete(&step);
            let d_shared = shared.apply_delete_in(&mut reg, &step);
            assert_eq!(d_owned.removed, d_shared.removed);
            assert_eq!(d_owned.changed, d_shared.changed);
            assert_eq!(owned.committed(), shared.committed());
            assert_eq!(owned.view_len(), shared.view_len());
            for t in owned.why().tuples() {
                assert_eq!(
                    owned.why().witnesses_of(t),
                    shared.why().witnesses_of(t),
                    "witness basis for {t}"
                );
            }
        }
    }

    #[test]
    fn sibling_contexts_stay_coherent_through_sync_in() {
        let (q, db) = fixture();
        let mut reg = PlanRegistry::<WitnessesAnn>::new(&db);
        let mut a = DeletionContext::new_in_registry(&mut reg, &q).unwrap();
        let mut b = DeletionContext::new_in_registry(&mut reg, &q).unwrap();
        // Sharing check: two registrations of the same query add no nodes.
        assert_eq!(reg.query_count(), 2);
        let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        a.apply_delete_in(&mut reg, &BTreeSet::from([dev.clone()]));
        // `b` hasn't drained yet: still on the pre-delete snapshot.
        assert_eq!(b.view_len(), 3);
        b.sync_in(&mut reg);
        assert_eq!(b.view_len(), a.view_len());
        assert!(!b.contains(&tuple(["bob", "main"])));
        assert_eq!(b.committed(), &BTreeSet::from([dev]));
        // A context registered after the commit starts on the current view.
        let late = DeletionContext::new_in_registry(&mut reg, &q).unwrap();
        assert_eq!(late.view_len(), a.view_len());
        assert_eq!(late.committed(), a.committed());
    }

    #[test]
    fn solve_after_apply_delete_in_runs_on_the_shared_view() {
        let (q, db) = fixture();
        let mut reg = PlanRegistry::<WitnessesAnn>::new(&db);
        let mut ctx = DeletionContext::new_in_registry(&mut reg, &q).unwrap();
        let opts = ExactOptions::default();
        let (first, _) = ctx
            .solve(&tuple(["bob", "report"]), Objective::View, &opts)
            .unwrap();
        assert!(first.is_side_effect_free());
        ctx.apply_delete_in(&mut reg, &first.deletions);
        // (ann, report) survives the first deletion.
        let (second, _) = ctx
            .solve(&tuple(["ann", "report"]), Objective::View, &opts)
            .unwrap();
        let inst = ctx.for_target(&tuple(["ann", "report"])).unwrap();
        assert!(inst.verify_against_reevaluation(&second.deletions).unwrap());
    }

    #[test]
    fn solve_after_apply_delete_runs_on_the_patched_view() {
        let (q, db) = fixture();
        let mut ctx = DeletionContext::new(&q, &db).unwrap();
        let opts = ExactOptions::default();
        let (first, kind) = ctx
            .solve(&tuple(["bob", "report"]), Objective::View, &opts)
            .unwrap();
        assert_eq!(
            kind,
            SolverKind::ExactSearch,
            "a two-relation chain, view objective"
        );
        assert!(first.is_side_effect_free());
        // Commit it, then solve the next target in the same loop.
        ctx.apply_delete(&first.deletions);
        let (second, _) = ctx
            .solve(&tuple(["ann", "report"]), Objective::View, &opts)
            .unwrap();
        // Solutions verify against re-evaluation *with* the commit applied.
        let inst = ctx.for_target(&tuple(["ann", "report"])).unwrap();
        assert!(inst.verify_against_reevaluation(&second.deletions).unwrap());
        // A target the commit already removed is no longer solvable.
        let mut ctx2 = DeletionContext::new(&q, &db).unwrap();
        let both: BTreeSet<Tid> = [
            db.tid_of("UserGroup", &tuple(["bob", "staff"])).unwrap(),
            db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap(),
        ]
        .into();
        ctx2.apply_delete(&both);
        assert!(!ctx2.contains(&tuple(["bob", "main"])));
        assert!(matches!(
            ctx2.solve(&tuple(["bob", "main"]), Objective::View, &opts)
                .unwrap_err(),
            CoreError::TargetNotInView { .. }
        ));
    }

    #[test]
    fn solve_caches_the_index_and_budget_aborts_drop_it() {
        let (q, db) = fixture();
        let mut ctx = DeletionContext::new(&q, &db).unwrap();
        let t = tuple(["bob", "report"]);
        let unbounded = ExactOptions::default();
        let (cold, _) = ctx.solve(&t, Objective::Source, &unbounded).unwrap();
        assert_eq!(ctx.cached_index_count(), 1);
        let (warm, _) = ctx.solve(&t, Objective::Source, &unbounded).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, ctx.chain_min_source_deletion(&t).unwrap());
        assert_eq!(ctx.cached_index_count(), 1, "same target, same slot");
        // The view search exhausts one node; the dirty index is dropped.
        let one = ExactOptions { node_budget: 1 };
        assert!(matches!(
            ctx.solve(&t, Objective::View, &one).unwrap_err(),
            CoreError::BudgetExhausted { budget: 1 }
        ));
        assert_eq!(ctx.cached_index_count(), 0);
        let (view, _) = ctx.solve(&t, Objective::View, &unbounded).unwrap();
        assert_eq!(view, ctx.min_view_side_effects(&t, &unbounded).unwrap());
    }
}
