//! The **shared-plan registry** — the maintained-view engine: common-subplan
//! sharing and single-pass delta fan-out across any number of standing
//! queries.
//!
//! A serving engine holds **many** standing queries over the same
//! database, and real query populations overlap heavily: every query scans
//! the same base relations, subscription-style queries are cheap select
//! tops over one expensive join/⊕ core, and self-joins repeat a subtree
//! inside a single query. Maintaining each query on its own would rebuild
//! all of that N times and re-push every deletion N times — O(N · |delta|)
//! maintenance for work that is almost entirely identical.
//!
//! [`PlanRegistry`] keeps **one DAG of shared operator nodes** instead,
//! driving the per-operator kernels of [`crate::plan`] over it. It is the
//! only engine that maintains views: a registry holding one query is that
//! query's materialized pipeline ([`crate::engine::eval_annotated`] is a
//! one-query registry whose root is consumed on the spot, and `dap-core`'s
//! deletion contexts own one unless they join a shared one).
//!
//! * **Hash-consing at build time.** Every operator subtree is reduced to a
//!   canonical, *positional* node key — scans by relation name, select
//!   predicates with attribute references resolved to column positions,
//!   projections/unions by position lists, joins by key positions and
//!   annotation layout. Renames collapse into their child (they only
//!   relabel the schema), so α-equivalent subtrees — same operators over
//!   the same relations modulo attribute naming — map to the same key and
//!   resolve to a **single shared node**. Sharing applies across registered
//!   queries *and* within one (a self-join's repeated branch is stored
//!   once). Annotations are positional too ([`Annotation::from_scan`] seeds
//!   from the relation's own schema), so a shared node's rows *and*
//!   annotations are identical to what every subscriber's own one-query
//!   registry would hold.
//! * **Refcounted nodes with per-root taps.** Each node counts its parent
//!   edges (with multiplicity — a self-join contributes two) plus one per
//!   query rooted at it; [`PlanRegistry::unregister`] releases the root and
//!   cascades, tombstoning nodes whose count hits zero (slots are never
//!   reused, preserving the children-before-parents id order the delta
//!   push relies on). Each distinct root carries one `RootTap` — the
//!   sorted-order and tuple→slot index every query rooted there reads
//!   through.
//! * **Single-pass delta push with per-query fan-out.**
//!   [`PlanRegistry::delete_sources`] seeds each scan kill once, pushes the
//!   delta through the shared DAG **exactly once** — each node's
//!   (removed, changed) delta is computed one time regardless of how many
//!   queries consume it — and clones the per-root [`ViewDelta`] out to
//!   every subscriber. The push visits node ids in ascending order on the
//!   calling thread: children always have smaller ids than their parents,
//!   so every node sees its children's settled deltas, and nodes whose
//!   children produced no delta are skipped. Only the one-time operator
//!   builds shard over the registry's [`ParPool`].
//! * **Subscriptions.** Every [`crate::plan::ViewDelta`] consumer (a
//!   `dap serve` session, `dap-core`'s registry-backed deletion contexts)
//!   opens its own queue on a query with
//!   [`PlanRegistry::subscribe_session`]; every effective `delete_sources`
//!   appends `(tids, per-query delta)` to each queue on that query, and
//!   [`PlanRegistry::drain_session`] hands a consumer everything committed
//!   since it last looked — including commits made through *other*
//!   consumers of the same shared DAG.
//!
//! Registration is transactional (a mid-build error rolls back every node
//! the call created) and **mid-stream registration replays history**: a
//! query registered after deletions have been applied builds its new nodes
//! over the full base relations, then replays the committed deletions
//! through just those nodes, so it observes exactly the views a fresh
//! plan over the deleted-from database would show.
//!
//! ```
//! use dap_relalg::{parse_database, parse_query, tuple, PlanRegistry, Unit};
//!
//! let db = parse_database(
//!     "relation UserGroup(user, grp) { (ann, staff), (bob, staff), (bob, dev) }
//!      relation GroupFile(grp, file) { (staff, report), (dev, main), (dev, report) }",
//! ).unwrap();
//! let mut reg = PlanRegistry::<Unit>::new(&db);
//! let core = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
//! let bob = parse_query(
//!     "select(project(join(scan UserGroup, scan GroupFile), [user, file]), user = 'bob')",
//! ).unwrap();
//! let q1 = reg.register(&core).unwrap();
//! let q2 = reg.register(&bob).unwrap();
//! // The select top is the only node q2 adds: scans, join and ⊕-project
//! // are shared with q1.
//! assert_eq!(reg.node_count(), 5);
//! let deltas = reg.delete_sources(&[db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap()]);
//! assert_eq!(deltas[0].0, q1);
//! assert_eq!(deltas[0].1.removed, vec![tuple(["bob", "main"])]);
//! assert_eq!(deltas[1].0, q2);
//! assert_eq!(deltas[1].1.removed, vec![tuple(["bob", "main"])]);
//! ```

use crate::database::{Database, Tid};
use crate::engine::{Annotated, Annotation};
use crate::error::Result;
use crate::fingerprint::TupleSlotMap;
use crate::name::RelName;
use crate::par::ParPool;
use crate::plan::{
    build_join_node, build_project_node, build_scan_rows, build_select_node, build_union_node,
    join_keys_and_layout, propagate_node, Node, NodeDelta, Op, Rows, ViewDelta,
};
use crate::predicate::{CmpOp, Operand, Pred};
use crate::query::Query;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::typecheck::output_schema;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Handle of one registered standing query. Ids are assigned in
/// registration order, never reused, and order the per-query results of
/// [`PlanRegistry::delete_sources`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QueryId(u64);

impl QueryId {
    /// The raw registration index (the `k` rendered as `qk`). Stable
    /// across runs for the same registration order — the durable catalog
    /// persists this.
    pub fn index(&self) -> u64 {
        self.0
    }

    /// Rebuild a handle from a persisted index. Only meaningful against a
    /// registry whose registration sequence reproduces the original one
    /// (see [`PlanRegistry::register_at`]).
    pub fn from_index(index: u64) -> QueryId {
        QueryId(index)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Handle of one subscription created by
/// [`PlanRegistry::subscribe_session`]. Each `SubscriberId` owns a
/// private pending queue, so consumers watching the same [`QueryId`]
/// never steal each other's deltas.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SubscriberId(u64);

impl SubscriberId {
    /// The raw subscription counter (the `k` rendered as `sk`).
    pub fn index(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One per-session subscription: the query it watches plus its private
/// pending queue.
#[derive(Clone, Debug)]
struct SessionSub {
    query: QueryId,
    pending: Vec<(Vec<Tid>, ViewDelta)>,
}

/// One side of a canonicalized comparison: a column position or a constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum CanonOperand {
    Pos(usize),
    Const(Value),
}

/// A selection predicate with every attribute reference resolved to its
/// column position — the rename-insensitive form used in [`NodeKey`]s.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum CanonPred {
    True,
    Cmp {
        lhs: CanonOperand,
        op: CmpOp,
        rhs: CanonOperand,
    },
    And(Box<CanonPred>, Box<CanonPred>),
    Or(Box<CanonPred>, Box<CanonPred>),
    Not(Box<CanonPred>),
}

fn canon_operand(o: &Operand, schema: &Schema) -> CanonOperand {
    match o {
        Operand::Attr(a) => CanonOperand::Pos(
            schema
                .index_of(a)
                .expect("predicate attrs validated by output_schema"),
        ),
        Operand::Const(v) => CanonOperand::Const(v.clone()),
    }
}

fn canon_pred(p: &Pred, schema: &Schema) -> CanonPred {
    match p {
        Pred::True => CanonPred::True,
        Pred::Cmp { lhs, op, rhs } => CanonPred::Cmp {
            lhs: canon_operand(lhs, schema),
            op: *op,
            rhs: canon_operand(rhs, schema),
        },
        Pred::And(a, b) => CanonPred::And(
            Box::new(canon_pred(a, schema)),
            Box::new(canon_pred(b, schema)),
        ),
        Pred::Or(a, b) => CanonPred::Or(
            Box::new(canon_pred(a, schema)),
            Box::new(canon_pred(b, schema)),
        ),
        Pred::Not(a) => CanonPred::Not(Box::new(canon_pred(a, schema))),
    }
}

/// The canonical structural identity of an operator subtree: everything
/// positional, nothing named (renames have already collapsed away), child
/// identity by shared node id. Two subtrees with equal keys materialize
/// identical rows *and* identical annotations, so they share one node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum NodeKey {
    Scan(RelName),
    Select {
        child: usize,
        pred: CanonPred,
    },
    Project {
        child: usize,
        positions: Vec<usize>,
    },
    Join {
        left: usize,
        right: usize,
        l_keys: Vec<usize>,
        r_keys: Vec<usize>,
        merge_from_right: Vec<Option<usize>>,
        right_extra: Vec<usize>,
    },
    Union {
        left: usize,
        right: usize,
        positions: Vec<usize>,
    },
}

/// One registered query: its root node and its (possibly renamed) output
/// schema. Many queries may share a root.
#[derive(Clone, Debug)]
struct RegisteredQuery {
    root: usize,
    schema: Schema,
}

/// Read-side state of one distinct root node: sorted iteration order and
/// the tuple → slot index (fingerprint-keyed with collision-checked
/// fallback against the root rows), shared by every query rooted there.
/// Built over all slots; reads filter dead ones.
#[derive(Clone, Debug)]
struct RootTap {
    refs: usize,
    order: Vec<usize>,
    index: TupleSlotMap,
}

/// A multi-query materialization: hash-consed shared operator nodes,
/// refcounted per-root output taps, and a single-pass
/// [`PlanRegistry::delete_sources`] that fans per-query [`ViewDelta`]s out
/// to every registered query. See the module docs for the architecture.
#[derive(Clone, Debug)]
pub struct PlanRegistry<A> {
    db: Arc<Database>,
    pool: ParPool,
    /// The shared DAG arena. Ids are append-only: children always precede
    /// parents, tombstoned slots ([`PlanRegistry::unregister`]) are never
    /// reused.
    nodes: Vec<Node<A>>,
    /// Per-node scratch deltas, reused across pushes.
    deltas: Vec<NodeDelta>,
    /// Canonical key → node id (live nodes only).
    keys: HashMap<NodeKey, usize>,
    /// Node id → its canonical key (`None` once tombstoned).
    key_of: Vec<Option<NodeKey>>,
    /// Parent-edge count (with multiplicity) plus queries rooted here.
    refs: Vec<usize>,
    live: Vec<bool>,
    /// Child ids per node, in operator order (left before right; a
    /// self-join lists the shared child twice).
    children_of: Vec<Vec<usize>>,
    /// `(relation, scan node)` pairs of live scan nodes.
    scans: Vec<(RelName, usize)>,
    queries: BTreeMap<QueryId, RegisteredQuery>,
    /// Distinct root node → its tap.
    taps: HashMap<usize, RootTap>,
    /// Subscriptions: private pending `(tids, delta)` queues keyed by
    /// [`SubscriberId`], appended by every effective `delete_sources` call
    /// in commit order.
    session_outbox: BTreeMap<SubscriberId, SessionSub>,
    next_subscriber: u64,
    /// Every tid ever deleted through this registry — replayed into nodes
    /// built by later registrations.
    committed: BTreeSet<Tid>,
    next_query: u64,
    /// Scratch for [`PlanRegistry::delete_sources`]'s per-root delta
    /// extraction, reused across pushes so steady-state turns keep the
    /// table's allocation instead of building a fresh map per deletion.
    per_root_scratch: HashMap<usize, ViewDelta>,
}

impl<A: Annotation> PlanRegistry<A> {
    /// An empty registry over `db` with the process-default [`ParPool`].
    pub fn new(db: &Database) -> PlanRegistry<A> {
        PlanRegistry::new_shared_with(Arc::new(db.clone()), ParPool::global())
    }

    /// [`PlanRegistry::new`] with an explicit pool.
    pub fn with_pool(db: &Database, pool: ParPool) -> PlanRegistry<A> {
        PlanRegistry::new_shared_with(Arc::new(db.clone()), pool)
    }

    /// An empty registry from a shared database handle (no deep clone).
    pub fn new_shared(db: Arc<Database>) -> PlanRegistry<A> {
        PlanRegistry::new_shared_with(db, ParPool::global())
    }

    /// [`PlanRegistry::new_shared`] with an explicit pool. Results are
    /// identical for every pool size; a one-thread pool runs the exact
    /// sequential code paths.
    pub fn new_shared_with(db: Arc<Database>, pool: ParPool) -> PlanRegistry<A> {
        PlanRegistry {
            db,
            pool,
            nodes: Vec::new(),
            deltas: Vec::new(),
            keys: HashMap::new(),
            key_of: Vec::new(),
            refs: Vec::new(),
            live: Vec::new(),
            children_of: Vec::new(),
            scans: Vec::new(),
            queries: BTreeMap::new(),
            taps: HashMap::new(),
            session_outbox: BTreeMap::new(),
            next_subscriber: 0,
            committed: BTreeSet::new(),
            next_query: 0,
            per_root_scratch: HashMap::new(),
        }
    }

    /// The shared database handle the registry materializes over.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The sharding policy used for operator builds (delta pushes always
    /// run on the calling thread).
    pub fn pool(&self) -> ParPool {
        self.pool
    }

    /// Every tid deleted through this registry so far.
    pub fn committed(&self) -> &BTreeSet<Tid> {
        &self.committed
    }

    /// Number of currently registered queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Number of live shared nodes (the DAG's size — compare against the
    /// sum of per-query plan sizes to see the sharing win).
    pub fn node_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// The registered query ids, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.keys().copied().collect()
    }

    /// Register a standing query, building only the operator nodes not
    /// already shared with earlier registrations (α-equivalent subtrees —
    /// identical modulo renaming — resolve to existing nodes). If
    /// deletions were already applied, the new nodes replay them so the
    /// query observes the current (deleted-from) database. Type errors
    /// leave the registry unchanged.
    pub fn register(&mut self, q: &Query) -> Result<QueryId> {
        output_schema(q, &self.db.catalog())?;
        let before = self.nodes.len();
        let (root, schema) = match self.build_node(q) {
            Ok(built) => built,
            Err(e) => {
                self.rollback(before);
                return Err(e);
            }
        };
        if self.nodes.len() > before && !self.committed.is_empty() {
            self.replay_committed(before);
        }
        self.refs[root] += 1;
        if !self.taps.contains_key(&root) {
            let rows = &self.nodes[root].rows;
            let mut order: Vec<usize> = (0..rows.tuples.len()).collect();
            order.sort_by(|&i, &j| rows.tuples[i].cmp(&rows.tuples[j]));
            let mut index = TupleSlotMap::with_capacity(rows.tuples.len());
            for (slot, t) in rows.tuples.iter().enumerate() {
                index.insert(t, slot);
            }
            self.taps.insert(
                root,
                RootTap {
                    refs: 0,
                    order,
                    index,
                },
            );
        }
        self.taps.get_mut(&root).expect("tap just ensured").refs += 1;
        let id = QueryId(self.next_query);
        self.next_query += 1;
        self.queries.insert(id, RegisteredQuery { root, schema });
        Ok(id)
    }

    /// The index the next [`PlanRegistry::register`] call will assign.
    /// Restore paths validate persisted catalog ids against this before
    /// calling [`PlanRegistry::register_at`].
    pub fn next_query_index(&self) -> u64 {
        self.next_query
    }

    /// [`PlanRegistry::register`], but forcing the assigned handle to be
    /// exactly `id` — the restore hook that lets recovery reproduce a
    /// persisted catalog's ids even though the original process may have
    /// burned intermediate indexes on since-unregistered (or ephemeral)
    /// queries. Indexes between [`PlanRegistry::next_query_index`] and
    /// `id` are skipped forever, exactly as if those registrations had
    /// happened and been unregistered. On error the id sequence is left
    /// untouched.
    ///
    /// # Panics
    ///
    /// If `id` is behind the current sequence (`id.index()` <
    /// [`PlanRegistry::next_query_index`]) — ids are never reused, so the
    /// caller must validate persisted ids first and surface violations as
    /// data corruption.
    pub fn register_at(&mut self, q: &Query, id: QueryId) -> Result<QueryId> {
        assert!(
            id.0 >= self.next_query,
            "register_at cannot move the id sequence backwards (requested {id}, next is q{})",
            self.next_query
        );
        let saved = self.next_query;
        self.next_query = id.0;
        match self.register(q) {
            Ok(got) => {
                debug_assert_eq!(got, id);
                Ok(got)
            }
            Err(e) => {
                self.next_query = saved;
                Err(e)
            }
        }
    }

    /// Advance the id sequence to at least `to` without registering
    /// anything — the other restore hook: ids the original process burned
    /// on queries that never reached (or already left) a durable catalog
    /// must stay burned, or a later registration would mint a handle the
    /// history already used. No-op when the sequence is already past `to`.
    pub fn advance_query_index(&mut self, to: u64) {
        self.next_query = self.next_query.max(to);
    }

    /// Remove a standing query, releasing its root reference; nodes no
    /// other query (transitively) needs are tombstoned and their memory
    /// dropped. Returns whether `id` was registered. Subscriptions on `id`
    /// close, discarding anything still pending.
    pub fn unregister(&mut self, id: QueryId) -> bool {
        let Some(rq) = self.queries.remove(&id) else {
            return false;
        };
        self.session_outbox.retain(|_, sub| sub.query != id);
        let tap = self
            .taps
            .get_mut(&rq.root)
            .expect("registered root has a tap");
        tap.refs -= 1;
        if tap.refs == 0 {
            self.taps.remove(&rq.root);
        }
        self.release(rq.root);
        true
    }

    /// Open a *private* subscription on `id`: every subsequent effective
    /// [`PlanRegistry::delete_sources`] call appends `(tids, delta)` to
    /// this subscriber's own queue, drained with
    /// [`PlanRegistry::drain_session`]. Multiple subscribers on the same
    /// query each get every delta. `None` for unknown ids.
    pub fn subscribe_session(&mut self, id: QueryId) -> Option<SubscriberId> {
        if !self.queries.contains_key(&id) {
            return None;
        }
        let sub = SubscriberId(self.next_subscriber);
        self.next_subscriber += 1;
        self.session_outbox.insert(
            sub,
            SessionSub {
                query: id,
                pending: Vec::new(),
            },
        );
        Some(sub)
    }

    /// Take everything committed since this subscriber last drained, in
    /// commit order. Empty for closed or unknown subscribers.
    pub fn drain_session(&mut self, sub: SubscriberId) -> Vec<(Vec<Tid>, ViewDelta)> {
        self.session_outbox
            .get_mut(&sub)
            .map(|s| std::mem::take(&mut s.pending))
            .unwrap_or_default()
    }

    /// Close a per-session subscription, dropping anything still pending.
    /// Returns whether the subscriber existed. Subscriptions also close
    /// implicitly when their query is unregistered.
    pub fn unsubscribe_session(&mut self, sub: SubscriberId) -> bool {
        self.session_outbox.remove(&sub).is_some()
    }

    /// The query a live per-session subscription watches, if any.
    pub fn session_query(&self, sub: SubscriberId) -> Option<QueryId> {
        self.session_outbox.get(&sub).map(|s| s.query)
    }

    /// The output schema of a registered query (with its renames applied —
    /// queries sharing a root can differ here).
    pub fn query_schema(&self, id: QueryId) -> &Schema {
        &self.query(id).schema
    }

    /// Number of tuples currently in a registered query's view.
    pub fn view_len(&self, id: QueryId) -> usize {
        self.nodes[self.query(id).root].rows.alive_count
    }

    /// Iterate over a registered query's current view in sorted tuple
    /// order.
    pub fn iter_query(&self, id: QueryId) -> impl Iterator<Item = (&Tuple, &A)> {
        let root = self.query(id).root;
        let tap = &self.taps[&root];
        let rows = &self.nodes[root].rows;
        tap.order
            .iter()
            .filter(|&&s| rows.alive[s])
            .map(move |&s| (&*rows.tuples[s], &rows.annots[s]))
    }

    /// The current annotation of `t` in a registered query's view, if `t`
    /// is (still) there.
    pub fn annotation_of(&self, id: QueryId, t: &Tuple) -> Option<&A> {
        let root = self.query(id).root;
        let rows = &self.nodes[root].rows;
        self.taps[&root]
            .index
            .get(t, &rows.tuples)
            .filter(|&s| rows.alive[s])
            .map(|s| &rows.annots[s])
    }

    /// Whether `t` is (still) in a registered query's view.
    pub fn contains(&self, id: QueryId, t: &Tuple) -> bool {
        self.annotation_of(id, t).is_some()
    }

    /// Clone a registered query's current view into a sorted [`Annotated`]
    /// — what a fresh evaluation over the deleted-from database would
    /// return (up to source-tuple renumbering inside the annotations).
    pub fn snapshot(&self, id: QueryId) -> Annotated<A> {
        let schema = self.query(id).schema.clone();
        let mut tuples = Vec::with_capacity(self.view_len(id));
        let mut annots = Vec::with_capacity(self.view_len(id));
        for (t, a) in self.iter_query(id) {
            tuples.push(t.clone());
            annots.push(a.clone());
        }
        Annotated::from_sorted_parts(schema, tuples, annots)
    }

    /// Consume the registry into query `id`'s current view, sorted, moving
    /// the root rows out instead of cloning them — the one-shot evaluation
    /// path ([`crate::engine::eval_annotated`] is a one-query registry
    /// plus this read).
    ///
    /// # Panics
    ///
    /// If `id` is not registered.
    pub(crate) fn into_annotated(mut self, id: QueryId) -> Annotated<A> {
        let RegisteredQuery { root, schema } = self.queries.remove(&id).expect("unknown QueryId");
        let rows = std::mem::replace(&mut self.nodes[root], Node::placeholder()).rows;
        // Drop every other node first: tuples the root shares with them
        // (select and union passthrough) become unique and move out below;
        // scan rows stay shared with the relation's cache and cost one
        // clone each.
        drop(self);
        // Zip, drop dead slots, sort by tuple, unzip: the sort moves whole
        // pairs, so no per-element Option take-dance is needed.
        let mut pairs: Vec<(Arc<Tuple>, A)> = rows
            .tuples
            .into_iter()
            .zip(rows.annots)
            .zip(rows.alive)
            .filter(|(_, alive)| *alive)
            .map(|(pair, _)| pair)
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut tuples = Vec::with_capacity(pairs.len());
        let mut annots = Vec::with_capacity(pairs.len());
        for (t, a) in pairs {
            tuples.push(Arc::try_unwrap(t).unwrap_or_else(|shared| (*shared).clone()));
            annots.push(a);
        }
        Annotated::from_sorted_parts(schema, tuples, annots)
    }

    /// Delete the source tuples named by `tids` from every registered
    /// view: one push through the shared DAG, then per-query deltas cloned
    /// out in registration order. No-op tids (unknown relations,
    /// out-of-range or already-dead rows, repeats) are skipped, so the
    /// call is idempotent and deletions are cumulative across calls; a
    /// batch with no effect returns empty deltas without touching the DAG.
    /// Every subscription on a query additionally gets `(tids, delta)`
    /// appended to its queue.
    pub fn delete_sources(&mut self, tids: &[Tid]) -> Vec<(QueryId, ViewDelta)> {
        // Record even no-op tids: a relation nobody scans *yet* must still
        // be replayed into nodes a later registration builds.
        self.committed.extend(tids.iter().cloned());
        let seeds = kill_scan_rows(&mut self.nodes, &self.scans, tids);
        if seeds.is_empty() {
            return self
                .queries
                .keys()
                .map(|&q| (q, ViewDelta::default()))
                .collect();
        }
        for d in &mut self.deltas {
            d.clear();
        }
        for (node, row) in seeds {
            self.deltas[node].removed.push(row);
        }
        self.push_from(0);
        // One extraction per distinct root; clone per query. The map is
        // reused scratch (taken and returned) so steady-state pushes keep
        // its table allocation.
        let mut per_root = std::mem::take(&mut self.per_root_scratch);
        per_root.clear();
        for rq in self.queries.values() {
            per_root
                .entry(rq.root)
                .or_insert_with(|| self.extract_delta(rq.root));
        }
        let out: Vec<(QueryId, ViewDelta)> = self
            .queries
            .iter()
            .map(|(&q, rq)| (q, per_root[&rq.root].clone()))
            .collect();
        self.per_root_scratch = per_root;
        // `out` ascends by query id (it is built from the `queries` map).
        for sub in self.session_outbox.values_mut() {
            if let Ok(i) = out.binary_search_by_key(&sub.query, |(q, _)| *q) {
                sub.pending.push((tids.to_vec(), out[i].1.clone()));
            }
        }
        out
    }

    fn query(&self, id: QueryId) -> &RegisteredQuery {
        self.queries.get(&id).expect("unknown QueryId")
    }

    /// Recursive hash-consing build: canonicalize, look up, build only on
    /// a miss. Children are built (or found) before parents, so every
    /// node's children have smaller ids.
    fn build_node(&mut self, q: &Query) -> Result<(usize, Schema)> {
        let pool = self.pool;
        match q {
            Query::Scan(rel) => {
                let db = self.db.clone();
                let r = db.require(rel)?;
                let schema = r.schema().clone();
                let key = NodeKey::Scan(rel.clone());
                if let Some(&id) = self.keys.get(&key) {
                    return Ok((id, schema));
                }
                let rows = build_scan_rows::<A>(r, pool);
                let id = self.add_node(key, Op::Scan, rows, Vec::new());
                self.scans.push((rel.clone(), id));
                Ok((id, schema))
            }
            Query::Select { input, pred } => {
                let (child, schema) = self.build_node(input)?;
                let key = NodeKey::Select {
                    child,
                    pred: canon_pred(pred, &schema),
                };
                if let Some(&id) = self.keys.get(&key) {
                    return Ok((id, schema));
                }
                let (op, rows) =
                    build_select_node(child, &self.nodes[child].rows, &schema, pred, pool)?;
                let id = self.add_node(key, op, rows, vec![child]);
                Ok((id, schema))
            }
            Query::Project { input, attrs } => {
                let (child, in_schema) = self.build_node(input)?;
                let schema = in_schema.project(attrs)?;
                let positions = in_schema.positions_of(attrs)?;
                let key = NodeKey::Project {
                    child,
                    positions: positions.clone(),
                };
                if let Some(&id) = self.keys.get(&key) {
                    return Ok((id, schema));
                }
                let (op, rows) =
                    build_project_node(child, &self.nodes[child].rows, positions, pool);
                let id = self.add_node(key, op, rows, vec![child]);
                Ok((id, schema))
            }
            Query::Join { left, right } => {
                let (lid, ls) = self.build_node(left)?;
                let (rid, rs) = self.build_node(right)?;
                let schema = ls.join_with(&rs);
                let (l_keys, r_keys, layout) = join_keys_and_layout(&ls, &rs);
                let key = NodeKey::Join {
                    left: lid,
                    right: rid,
                    l_keys: l_keys.clone(),
                    r_keys: r_keys.clone(),
                    merge_from_right: layout.merge_from_right.clone(),
                    right_extra: layout.right_extra.clone(),
                };
                if let Some(&id) = self.keys.get(&key) {
                    return Ok((id, schema));
                }
                let (op, rows) = build_join_node(
                    (lid, &self.nodes[lid].rows, &l_keys),
                    (rid, &self.nodes[rid].rows, &r_keys),
                    layout,
                    pool,
                );
                let id = self.add_node(key, op, rows, vec![lid, rid]);
                Ok((id, schema))
            }
            Query::Union { left, right } => {
                let (lid, ls) = self.build_node(left)?;
                let (rid, rs) = self.build_node(right)?;
                let positions = rs.positions_of(ls.attrs())?;
                let key = NodeKey::Union {
                    left: lid,
                    right: rid,
                    positions: positions.clone(),
                };
                if let Some(&id) = self.keys.get(&key) {
                    return Ok((id, ls));
                }
                let (op, rows) = build_union_node(
                    lid,
                    rid,
                    &self.nodes[lid].rows,
                    &self.nodes[rid].rows,
                    positions,
                    pool,
                );
                let id = self.add_node(key, op, rows, vec![lid, rid]);
                Ok((id, ls))
            }
            Query::Rename { input, mapping } => {
                // Renames collapse into the child: no node, just a schema
                // relabel — this is what makes the keys α-insensitive.
                let (id, schema) = self.build_node(input)?;
                Ok((id, schema.rename(mapping)?))
            }
        }
    }

    fn add_node(&mut self, key: NodeKey, op: Op, rows: Rows<A>, children: Vec<usize>) -> usize {
        let id = self.nodes.len();
        for &c in &children {
            self.refs[c] += 1;
        }
        self.nodes.push(Node { op, rows });
        self.deltas.push(NodeDelta::default());
        self.refs.push(0);
        self.live.push(true);
        self.children_of.push(children);
        self.keys.insert(key.clone(), id);
        self.key_of.push(Some(key));
        id
    }

    /// Undo a failed registration: nodes with ids `>= before` were created
    /// by this call only (nothing older can reference them), so they pop
    /// off the arena after returning their child refs and keys.
    fn rollback(&mut self, before: usize) {
        for id in (before..self.nodes.len()).rev() {
            for &c in &self.children_of[id] {
                self.refs[c] -= 1;
            }
            if let Some(key) = self.key_of[id].take() {
                self.keys.remove(&key);
            }
        }
        self.scans.retain(|&(_, n)| n < before);
        self.nodes.truncate(before);
        self.deltas.truncate(before);
        self.refs.truncate(before);
        self.live.truncate(before);
        self.children_of.truncate(before);
        self.key_of.truncate(before);
    }

    /// Release one reference on `id`, tombstoning it (and cascading to its
    /// children) when the count reaches zero. Tombstones keep their slot —
    /// ids are never reused — but drop all row and operator memory.
    fn release(&mut self, id: usize) {
        self.refs[id] -= 1;
        if self.refs[id] > 0 {
            return;
        }
        self.live[id] = false;
        if let Some(key) = self.key_of[id].take() {
            self.keys.remove(&key);
        }
        if matches!(self.nodes[id].op, Op::Scan) {
            self.scans.retain(|&(_, n)| n != id);
        }
        self.nodes[id] = Node::placeholder();
        self.deltas[id] = NodeDelta::default();
        let children = std::mem::take(&mut self.children_of[id]);
        for c in children {
            self.release(c);
        }
    }

    /// Bring nodes built by a late registration (`ids >= before`) up to
    /// date with the already-committed deletions. New nodes were built
    /// over the *full* base relations and the *current* rows of any shared
    /// children, so it suffices to (1) kill committed rows in new scan
    /// nodes, (2) present existing children's dead slots as removal deltas
    /// to their new parents, and (3) push through the new nodes only, in
    /// ascending id order. Affected ⊕-buckets recompute from surviving
    /// contributors, which erases any stale annotation a dead child slot
    /// contributed at build time.
    fn replay_committed(&mut self, before: usize) {
        for d in &mut self.deltas {
            d.clear();
        }
        let new_scans: Vec<(RelName, usize)> = self
            .scans
            .iter()
            .filter(|&&(_, n)| n >= before)
            .cloned()
            .collect();
        let seeds = if new_scans.is_empty() {
            Vec::new()
        } else {
            kill_scan_rows(&mut self.nodes, &new_scans, &self.committed)
        };
        let mut any = !seeds.is_empty();
        for (node, row) in seeds {
            self.deltas[node].removed.push(row);
        }
        let mut seeded: BTreeSet<usize> = BTreeSet::new();
        for id in before..self.nodes.len() {
            for ci in 0..self.children_of[id].len() {
                let c = self.children_of[id][ci];
                if c < before && seeded.insert(c) {
                    let rows = &self.nodes[c].rows;
                    let delta = &mut self.deltas[c];
                    for (s, &al) in rows.alive.iter().enumerate() {
                        if !al {
                            delta.removed.push(s);
                            any = true;
                        }
                    }
                }
            }
        }
        if any {
            self.push_from(before);
        }
    }

    /// The one delta push, shared by [`PlanRegistry::delete_sources`]
    /// (`first = 0`) and `replay_committed` (`first` = the first node the
    /// late registration built): visit ids `first..` in ascending order and
    /// propagate every node one of whose children carries a delta.
    /// Ascending id order is a valid push order because children always
    /// have smaller ids than their parents; scans and tombstones have no
    /// children and are skipped.
    fn push_from(&mut self, first: usize) {
        for id in first..self.nodes.len() {
            let (child_deltas, rest) = self.deltas.split_at_mut(id);
            if !self.children_of[id]
                .iter()
                .any(|&c| !child_deltas[c].is_empty())
            {
                continue;
            }
            let (child_nodes, rest_nodes) = self.nodes.split_at_mut(id);
            propagate_node(&mut rest_nodes[0], &mut rest[0], child_nodes, child_deltas);
        }
    }

    fn extract_delta(&self, root: usize) -> ViewDelta {
        let delta = &self.deltas[root];
        if delta.is_empty() {
            return ViewDelta::default();
        }
        let rows = &self.nodes[root].rows;
        let mut removed: Vec<Tuple> = delta
            .removed
            .iter()
            .map(|&s| (*rows.tuples[s]).clone())
            .collect();
        let mut changed: Vec<Tuple> = delta
            .changed
            .iter()
            .map(|&s| (*rows.tuples[s]).clone())
            .collect();
        removed.sort();
        changed.sort();
        ViewDelta { removed, changed }
    }
}

/// Kill every live row that `tids` names in the scan nodes listed in
/// `scans`, returning the `(scan node, row)` kills. Tids for relations no
/// listed scan reads, out-of-range or already-dead rows, and repeats are
/// no-ops; a relation scanned by several nodes dies in each of them.
fn kill_scan_rows<'t, A>(
    nodes: &mut [Node<A>],
    scans: &[(RelName, usize)],
    tids: impl IntoIterator<Item = &'t Tid>,
) -> Vec<(usize, usize)> {
    let mut kills = Vec::new();
    for tid in tids {
        for &(ref rel, node) in scans {
            if *rel != tid.rel {
                continue;
            }
            let rows = &mut nodes[node].rows;
            if tid.row < rows.alive.len() && rows.alive[tid.row] {
                rows.kill(tid.row);
                kills.push((node, tid.row));
            }
        }
    }
    kills
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{eval_annotated, Unit};
    use crate::parser::{parse_database, parse_query};
    use crate::tuple::tuple;

    fn fixture() -> Database {
        parse_database(
            "relation UserGroup(user, grp) {
                 (ann, staff), (bob, staff), (bob, dev)
             }
             relation GroupFile(grp, file) {
                 (staff, report), (dev, main), (dev, report)
             }",
        )
        .unwrap()
    }

    fn core() -> Query {
        parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap()
    }

    #[test]
    fn identical_queries_share_every_node() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        let q1 = reg.register(&core()).unwrap();
        let q2 = reg.register(&core()).unwrap();
        assert_ne!(q1, q2);
        // scan + scan + join + project = 4 nodes, not 8.
        assert_eq!(reg.node_count(), 4);
        assert_eq!(reg.query_count(), 2);
    }

    #[test]
    fn alpha_equivalent_queries_share_nodes_across_renames() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        reg.register(&core()).unwrap();
        let renamed = parse_query(
            "rename(project(join(scan UserGroup, scan GroupFile), [user, file]), \
             {user -> member})",
        )
        .unwrap();
        let q2 = reg.register(&renamed).unwrap();
        assert_eq!(reg.node_count(), 4, "rename adds no node");
        assert_eq!(
            reg.query_schema(q2).attrs()[0].to_string(),
            "member",
            "but the schema is per-query"
        );
    }

    #[test]
    fn registered_views_match_eval_annotated() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        for text in [
            "scan UserGroup",
            "select(scan UserGroup, user = 'bob')",
            "project(join(scan UserGroup, scan GroupFile), [user, file])",
            "union(scan UserGroup, rename(scan GroupFile, {grp -> user, file -> grp}))",
        ] {
            let q = parse_query(text).unwrap();
            let id = reg.register(&q).unwrap();
            let fresh = eval_annotated::<Unit>(&q, &db).unwrap();
            assert_eq!(reg.snapshot(id).tuples(), fresh.tuples(), "{text}");
            assert_eq!(reg.query_schema(id), &fresh.schema, "{text}");
        }
    }

    /// Delete `tids` one at a time from a registry serving `queries`,
    /// checking after every step that each view, and the delta that got it
    /// there, matches a fresh evaluation of the deleted-from database
    /// (`Unit` carries no tids, so no renumbering applies).
    fn assert_tracks_fresh(queries: &[Query], db: &Database, tids: &[Tid]) {
        let mut reg = PlanRegistry::<Unit>::new(db);
        let ids: Vec<QueryId> = queries.iter().map(|q| reg.register(q).unwrap()).collect();
        let mut views: Vec<Vec<Tuple>> = ids
            .iter()
            .map(|&id| reg.snapshot(id).tuples().to_vec())
            .collect();
        let mut deleted = BTreeSet::new();
        for tid in tids {
            let deltas = reg.delete_sources(std::slice::from_ref(tid));
            deleted.insert(tid.clone());
            let rest = db.without(&deleted);
            for (((id, delta), q), view) in deltas.iter().zip(queries).zip(&mut views) {
                let fresh = eval_annotated::<Unit>(q, &rest).unwrap();
                assert_eq!(
                    reg.snapshot(*id).tuples(),
                    fresh.tuples(),
                    "{q} after {deleted:?}"
                );
                assert_eq!(reg.view_len(*id), fresh.len(), "{q} after {deleted:?}");
                let removed: Vec<Tuple> = view
                    .iter()
                    .filter(|t| fresh.tuples().binary_search(t).is_err())
                    .cloned()
                    .collect();
                assert_eq!(delta.removed, removed, "{q} after {deleted:?}");
                assert!(delta.changed.is_empty(), "Unit annotations never change");
                *view = fresh.tuples().to_vec();
            }
        }
    }

    #[test]
    fn deletions_track_fresh_eval_per_operator() {
        let db = fixture();
        let queries: Vec<Query> = [
            "scan UserGroup",
            "select(scan UserGroup, user = 'bob')",
            "project(scan UserGroup, [grp])",
            "join(scan UserGroup, scan GroupFile)",
            "project(join(scan UserGroup, scan GroupFile), [user, file])",
            "union(scan UserGroup, rename(scan GroupFile, {grp -> user, file -> grp}))",
            "rename(scan UserGroup, {user -> member})",
        ]
        .iter()
        .map(|text| parse_query(text).unwrap())
        .collect();
        let all: Vec<Tid> = db.all_tids().collect();
        // Each operator on its own registry, then all of them sharing one.
        for q in &queries {
            assert_tracks_fresh(std::slice::from_ref(q), &db, &all);
        }
        assert_tracks_fresh(&queries, &db, &all);
    }

    #[test]
    fn shared_deletion_matches_fresh_evaluation() {
        let db = fixture();
        let queries = [
            core(),
            parse_query(
                "select(project(join(scan UserGroup, scan GroupFile), [user, file]), \
                 user = 'bob')",
            )
            .unwrap(),
            parse_query("scan UserGroup").unwrap(),
        ];
        let all: Vec<Tid> = db.all_tids().collect();
        assert_tracks_fresh(&queries, &db, &all);
    }

    #[test]
    fn self_join_shares_the_repeated_branch() {
        let db = parse_database("relation R(A, B) { (a, b1), (a, b2) }").unwrap();
        let q = Query::scan("R").project(["A"]).join(Query::scan("R"));
        let mut reg = PlanRegistry::<Unit>::new(&db);
        reg.register(&q).unwrap();
        // scan R is shared between the project branch and the join's right
        // operand: scan + project + join = 3 nodes.
        assert_eq!(reg.node_count(), 3);
        let all: Vec<Tid> = db.all_tids().collect();
        assert_tracks_fresh(&[q], &db, &all);
    }

    #[test]
    fn emptying_the_source_empties_the_view() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        let id = reg.register(&core()).unwrap();
        let all: Vec<Tid> = db.all_tids().collect();
        let deltas = reg.delete_sources(&all);
        assert_eq!(deltas[0].1.removed.len(), 3);
        assert_eq!(reg.view_len(id), 0);
        assert_eq!(reg.iter_query(id).count(), 0);
        assert!(reg.snapshot(id).is_empty());
        let rest = db.without(&all.into_iter().collect());
        assert!(eval_annotated::<Unit>(&core(), &rest).unwrap().is_empty());
        assert!(reg.into_annotated(id).is_empty());
    }

    #[test]
    fn into_annotated_matches_snapshot() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        let id = reg.register(&core()).unwrap();
        reg.delete_sources(&[db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap()]);
        let snap = reg.snapshot(id);
        let owned = reg.into_annotated(id);
        assert_eq!(owned.tuples(), snap.tuples());
        assert_eq!(owned.schema, snap.schema);
    }

    #[test]
    fn unregister_tombstones_unshared_nodes_only() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        let q1 = reg.register(&core()).unwrap();
        let bob = parse_query(
            "select(project(join(scan UserGroup, scan GroupFile), [user, file]), user = 'bob')",
        )
        .unwrap();
        let q2 = reg.register(&bob).unwrap();
        assert_eq!(reg.node_count(), 5);
        // Dropping the select top keeps the shared core.
        assert!(reg.unregister(q2));
        assert_eq!(reg.node_count(), 4);
        assert!(!reg.unregister(q2), "double unregister is a no-op");
        // Dropping the core releases everything.
        assert!(reg.unregister(q1));
        assert_eq!(reg.node_count(), 0);
        // The registry still works afterwards.
        let q3 = reg.register(&core()).unwrap();
        assert_eq!(reg.node_count(), 4);
        assert_eq!(reg.view_len(q3), 3);
    }

    #[test]
    fn mid_stream_registration_replays_committed_deletions() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        let q1 = reg.register(&core()).unwrap();
        let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        reg.delete_sources(std::slice::from_ref(&dev));
        assert_eq!(reg.view_len(q1), 2);
        // A brand-new query over the same (already deleted-from) sources:
        // new select node over the shared core, plus a fresh scan of a
        // relation already touched by deletions.
        let bob = parse_query(
            "select(project(join(scan UserGroup, scan GroupFile), [user, file]), user = 'bob')",
        )
        .unwrap();
        let q2 = reg.register(&bob).unwrap();
        let mut deleted = BTreeSet::new();
        deleted.insert(dev.clone());
        let fresh = eval_annotated::<Unit>(&bob, &db.without(&deleted)).unwrap();
        assert_eq!(reg.snapshot(q2).tuples(), fresh.tuples());
        // Same for a query whose *scan* is new to the registry.
        let gf = parse_query("scan GroupFile").unwrap();
        let staff = db.tid_of("GroupFile", &tuple(["staff", "report"])).unwrap();
        reg.delete_sources(std::slice::from_ref(&staff));
        deleted.insert(staff);
        let q3 = reg.register(&gf).unwrap();
        let fresh = eval_annotated::<Unit>(&gf, &db.without(&deleted)).unwrap();
        assert_eq!(reg.snapshot(q3).tuples(), fresh.tuples());
    }

    #[test]
    fn outbox_collects_commits_between_drains() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        let q1 = reg.register(&core()).unwrap();
        let sub = reg.subscribe_session(q1).unwrap();
        let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        let staff = db.tid_of("UserGroup", &tuple(["bob", "staff"])).unwrap();
        reg.delete_sources(std::slice::from_ref(&dev));
        reg.delete_sources(std::slice::from_ref(&staff));
        let pending = reg.drain_session(sub);
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].0, vec![dev]);
        assert_eq!(pending[0].1.removed, vec![tuple(["bob", "main"])]);
        assert_eq!(pending[1].0, vec![staff]);
        assert_eq!(pending[1].1.removed, vec![tuple(["bob", "report"])]);
        assert!(reg.drain_session(sub).is_empty(), "drain is destructive");
    }

    #[test]
    fn session_subscriptions_are_private_per_consumer() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        let q1 = reg.register(&core()).unwrap();
        // Two sessions watch the same query; a third watches nothing.
        let a = reg.subscribe_session(q1).unwrap();
        let b = reg.subscribe_session(q1).unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.session_query(a), Some(q1));
        assert!(reg.subscribe_session(QueryId::from_index(99)).is_none());
        let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        let staff = db.tid_of("UserGroup", &tuple(["bob", "staff"])).unwrap();
        reg.delete_sources(std::slice::from_ref(&dev));
        // Each subscriber sees every delta: a's drain does not steal b's
        // copy.
        let got_a = reg.drain_session(a);
        assert_eq!(got_a.len(), 1);
        assert_eq!(got_a[0].1.removed, vec![tuple(["bob", "main"])]);
        let got_b = reg.drain_session(b);
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0].1.removed, vec![tuple(["bob", "main"])]);
        assert!(reg.drain_session(a).is_empty(), "drain is destructive");
        // Unsubscribing stops the flow for that consumer only.
        assert!(reg.unsubscribe_session(a));
        assert!(!reg.unsubscribe_session(a), "second close is a no-op");
        reg.delete_sources(std::slice::from_ref(&staff));
        assert!(reg.drain_session(a).is_empty());
        assert_eq!(reg.drain_session(b).len(), 1);
        // Unregistering the query closes the remaining subscription.
        reg.unregister(q1);
        assert_eq!(reg.session_query(b), None);
        assert!(reg.drain_session(b).is_empty());
    }

    #[test]
    fn failed_registration_rolls_back_cleanly() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        reg.register(&core()).unwrap();
        assert_eq!(reg.node_count(), 4);
        // Unknown relation: rejected by output_schema before building.
        assert!(reg.register(&Query::scan("Nope")).is_err());
        // Value-level predicate error (ordered comparison across types)
        // surfaces mid-build, after the scan node: the rollback must not
        // disturb the shared nodes.
        let bad = Query::scan("UserGroup").select(crate::predicate::Pred::cmp(
            Operand::Attr("user".into()),
            CmpOp::Lt,
            Operand::Const(Value::int(3)),
        ));
        assert!(reg.register(&bad).is_err());
        assert_eq!(reg.node_count(), 4, "rollback left shared nodes alone");
        // The registry still registers and maintains correctly.
        let q = reg
            .register(&parse_query("scan UserGroup").unwrap())
            .unwrap();
        assert_eq!(reg.view_len(q), 3);
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let db = fixture();
        let mut seq = PlanRegistry::<Unit>::with_pool(&db, ParPool::sequential());
        let id = seq.register(&core()).unwrap();
        for threads in [2, 4] {
            let mut par = PlanRegistry::<Unit>::with_pool(&db, ParPool::new(threads));
            let pid = par.register(&core()).unwrap();
            assert_eq!(par.snapshot(pid).tuples(), seq.snapshot(id).tuples());
            assert_eq!(par.node_count(), seq.node_count());
        }
    }

    #[test]
    fn empty_and_noop_batches_return_empty_deltas() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        let q1 = reg.register(&core()).unwrap();
        let out = reg.delete_sources(&[]);
        assert_eq!(out, vec![(q1, ViewDelta::default())]);
        let out = reg.delete_sources(&[Tid::new("Nope", 0), Tid::new("UserGroup", 99)]);
        assert_eq!(out, vec![(q1, ViewDelta::default())]);
        // Repeats within one batch dedupe, and a later batch repeating an
        // already-deleted tid is a no-op.
        let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        let out = reg.delete_sources(&[dev.clone(), dev.clone()]);
        assert_eq!(out[0].1.removed, vec![tuple(["bob", "main"])]);
        let out = reg.delete_sources(&[dev]);
        assert_eq!(out, vec![(q1, ViewDelta::default())]);
        assert_eq!(reg.view_len(q1), 2);
    }

    #[test]
    fn register_at_reproduces_persisted_ids() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        assert_eq!(reg.next_query_index(), 0);
        // Skip ahead: q0..q2 were burned by the original process.
        let q3 = reg.register_at(&core(), QueryId::from_index(3)).unwrap();
        assert_eq!(q3.index(), 3);
        assert_eq!(q3.to_string(), "q3");
        assert_eq!(reg.next_query_index(), 4);
        // Plain registration continues from there.
        let q4 = reg
            .register(&parse_query("scan UserGroup").unwrap())
            .unwrap();
        assert_eq!(q4.index(), 4);
        // A failed register_at leaves the sequence untouched.
        let bad = parse_query("scan Nope").unwrap();
        assert!(reg.register_at(&bad, QueryId::from_index(9)).is_err());
        assert_eq!(reg.next_query_index(), 5);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn register_at_rejects_reused_ids() {
        let db = fixture();
        let mut reg = PlanRegistry::<Unit>::new(&db);
        reg.register(&core()).unwrap();
        let _ = reg.register_at(&core(), QueryId::from_index(0));
    }
}
