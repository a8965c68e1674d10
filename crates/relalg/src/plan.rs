//! The **operator kernels** of the maintained-view engine — per-operator
//! state, its construction, and incremental delta propagation under
//! source deletions, for every annotation semantics.
//!
//! [`crate::registry::PlanRegistry`] is the one engine that maintains
//! views: it hash-conses operator subtrees into a shared DAG and drives
//! this module's kernels over it. A one-query registry is the
//! materialized pipeline of a single `(Q, S)` —
//! [`crate::engine::eval_annotated`] is "register `Q`, consume the root".
//! Every operator node *retains* its state — scan row liveness, the
//! (left, right) pair behind every join output, per-bucket contributor
//! lists at projections and unions — so that a deletion pushed bottom-up
//! recomputes only the buckets whose derivations actually changed, in
//! `O(affected)` instead of an `O(|S|)` re-evaluation.
//!
//! ## Node state and the support-count invariants
//!
//! Every operator node materializes its output rows in **stable slots**
//! (first-derivation order). A slot is never reused; deletion marks it
//! dead. What "support" a node keeps per output slot depends on how the
//! operator can merge derivations:
//!
//! * **Scan** — slot `i` *is* base row `i` of the relation ([`Tid::row`]);
//!   the tid map is the identity plus a liveness bit. Deleting a source
//!   tuple kills the slot.
//! * **Select** — a partial 1:1 map from input slots to output slots.
//!   No merging: an output dies exactly when its input dies.
//! * **Join** — every output tuple has **exactly one** derivation
//!   `(left, right)`: the joined tuple embeds the full left tuple and
//!   determines the right tuple (shared attributes + appended extras), and
//!   within a node tuples are distinct under set semantics. The node keeps
//!   the pair per output plus both reverse adjacency lists — the retained
//!   form of the build-time hash table, keyed by the same [`JoinLayout`].
//!   An output dies when either side dies; an ⊗-recompute is one
//!   [`Annotation::join`].
//! * **Project / Union** — the ⊕-merge points. Each output bucket keeps
//!   its **contributor list** (input slots whose rows project/align into
//!   it, in derivation order). The *support count* is the list's length:
//!   a bucket dies exactly when its last contributor dies, and any
//!   contributor death or annotation change triggers a **bucket
//!   recomputation** — re-⊕-merging the *surviving* inputs from scratch,
//!   then [`Annotation::normalize`].
//!
//! Recomputing from surviving inputs (rather than trying to "subtract" the
//! lost derivation) is what makes maintenance correct for non-invertible
//! carriers: a minimal-witness basis can *grow* when a deletion kills the
//! witness that had absorbed a larger one, and the surviving contributors
//! still carry exactly the alternatives the fresh evaluation would see.
//!
//! ## Construction
//!
//! The `build_*` kernels shard their pure loops over a [`ParPool`]: the
//! join build hashes its right side into per-shard tables by key
//! fingerprint while the probe runs over left-row chunks, and per-row
//! annotation work (scan seeding, projection, ⊕-bucket normalization) maps
//! over contiguous ranges. ⊕-interning itself stays sequential, so every
//! merge happens in derivation order and the result is **identical to the
//! sequential build** for every carrier; a one-thread pool runs the exact
//! sequential code path. Tuples are shared between operator levels as
//! [`Arc<Tuple>`], so select/union passthrough and bucket interning bump a
//! refcount instead of cloning value vectors.
//!
//! ## Delta propagation
//!
//! Deltas are per-node `(removed slots, changed slots)` pairs, pushed
//! children-first, one node at a time:
//!
//! * a *removed* input slot prunes contributor lists / kills 1:1 outputs;
//! * a *changed* input slot marks its buckets affected;
//! * every affected bucket either dies (empty contributor list) or is
//!   recomputed; the recomputed annotation is compared against the old one
//!   (the [`Annotation`] `PartialEq` bound) and propagates **only if it
//!   differs** — all shipped carriers normalize to canonical forms, so an
//!   unchanged value stops the ripple right there.
//!
//! A root's delta reaches callers as a [`ViewDelta`]. Renames never
//! materialize a node: they only relabel the schema, so the registry
//! collapses them into their child and records the renamed schema per
//! query.
//!
//! ```
//! use dap_relalg::{parse_database, parse_query, tuple, PlanRegistry, Unit};
//!
//! let db = parse_database(
//!     "relation UserGroup(user, grp) { (ann, staff), (bob, staff), (bob, dev) }
//!      relation GroupFile(grp, file) { (staff, report), (dev, main), (dev, report) }",
//! ).unwrap();
//! let q = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
//!
//! let mut reg = PlanRegistry::<Unit>::new(&db);
//! let id = reg.register(&q).unwrap();
//! assert_eq!(reg.view_len(id), 3);
//! // Deleting (bob, dev) kills (bob, main); (bob, report) survives via staff.
//! let deltas = reg.delete_sources(&[db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap()]);
//! assert_eq!(deltas[0].1.removed, vec![tuple(["bob", "main"])]);
//! assert!(reg.annotation_of(id, &tuple(["bob", "report"])).is_some());
//! ```

use crate::database::Tid;
use crate::engine::{Annotation, JoinLayout};
use crate::error::Result;
use crate::fingerprint::{Bucket, FpMap, LayoutMode, TupleSlotMap};
use crate::name::Attr;
use crate::par::ParPool;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::sync::Arc;

/// What one [`crate::registry::PlanRegistry::delete_sources`] call did to
/// one registered query's view. Both lists are sorted ascending and
/// disjoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewDelta {
    /// View tuples that disappeared (their last derivation died).
    pub removed: Vec<Tuple>,
    /// View tuples that survive with a **different annotation** (some but
    /// not all of their derivations died, or an upstream annotation
    /// shrank/grew). Read the new value off
    /// [`crate::registry::PlanRegistry::annotation_of`].
    pub changed: Vec<Tuple>,
}

impl ViewDelta {
    /// Whether the deletion left the view completely untouched.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.changed.is_empty()
    }
}

/// Fewest rows per shard in the data-parallel build loops (below this the
/// sharding overhead exceeds the row work for every shipped carrier).
/// Every one-time build shards on this grain, the plan kernels here and
/// `dap-core`'s deletion-context skeleton alike.
pub const BUILD_GRAIN: usize = 64;

/// Materialized output rows of one operator: stable slots, tombstoned on
/// deletion. `tuples[s]` / `annots[s]` stay readable after death but are
/// never read by parents (their contributor lists are pruned first).
/// Tuples are `Arc`-shared with the operators above (passthrough and
/// bucket keys clone the handle, not the values).
#[derive(Clone, Debug)]
pub(crate) struct Rows<A> {
    pub(crate) tuples: Vec<Arc<Tuple>>,
    pub(crate) annots: Vec<A>,
    pub(crate) alive: Vec<bool>,
    pub(crate) alive_count: usize,
}

impl<A> Rows<A> {
    pub(crate) fn new(tuples: Vec<Arc<Tuple>>, annots: Vec<A>) -> Rows<A> {
        let n = tuples.len();
        Rows {
            tuples,
            annots,
            alive: vec![true; n],
            alive_count: n,
        }
    }

    pub(crate) fn kill(&mut self, slot: usize) {
        debug_assert!(self.alive[slot], "slot {slot} killed twice");
        self.alive[slot] = false;
        self.alive_count -= 1;
    }
}

/// The retained per-operator state (see the module docs for the invariants
/// each variant maintains). Child indices always point at earlier nodes:
/// the registry builds children first.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// Slot `i` ↔ base row `i`; deletion of `Tid { rel, row }` kills slot
    /// `row`. The relation name lives in the registry's scan list.
    Scan,
    /// `out_of[input slot]` — the output slot the row passed through to,
    /// if it satisfied the predicate.
    Select {
        child: usize,
        out_of: Vec<Option<usize>>,
    },
    /// ⊕-merge buckets: `out_of` maps every input slot to its bucket,
    /// `contributors[bucket]` lists the surviving input slots in
    /// derivation order (the bucket's support; empty ⇒ dead).
    Project {
        child: usize,
        positions: Vec<usize>,
        out_of: Vec<usize>,
        contributors: Vec<Vec<usize>>,
    },
    /// One derivation per output: `pair_of[out]` is the unique
    /// `(left slot, right slot)` pair, `left_outs`/`right_outs` the
    /// reverse adjacency used to find affected outputs in `O(matches)`.
    Join {
        left: usize,
        right: usize,
        layout: JoinLayout,
        pair_of: Vec<(usize, usize)>,
        left_outs: Vec<Vec<usize>>,
        right_outs: Vec<Vec<usize>>,
    },
    /// ⊕-merge buckets with at most one contributor per branch:
    /// `sources[out] = (left slot, right slot)` options; `(None, None)` ⇒
    /// dead. `positions` aligns the right branch to the left schema.
    Union {
        left: usize,
        right: usize,
        positions: Vec<usize>,
        from_left: Vec<usize>,
        from_right: Vec<usize>,
        sources: Vec<(Option<usize>, Option<usize>)>,
    },
}

#[derive(Clone, Debug)]
pub(crate) struct Node<A> {
    pub(crate) op: Op,
    pub(crate) rows: Rows<A>,
}

impl<A> Node<A> {
    /// An empty stand-in node: what a tombstoned (or moved-out) slot
    /// holds. Never read as a child — freed registry slots are not reused.
    pub(crate) fn placeholder() -> Node<A> {
        Node {
            op: Op::Scan,
            rows: Rows::new(Vec::new(), Vec::new()),
        }
    }
}

/// Per-node scratch delta for one registry `delete_sources` push.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeDelta {
    pub(crate) removed: Vec<usize>,
    pub(crate) changed: Vec<usize>,
    /// Affected-bucket scratch for [`propagate_node`], kept here so
    /// steady-state pushes reuse its allocation instead of growing a fresh
    /// `Vec` per node per turn. Always left empty between pushes.
    affected: Vec<usize>,
}

impl NodeDelta {
    pub(crate) fn clear(&mut self) {
        self.removed.clear();
        self.changed.clear();
        self.affected.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.changed.is_empty()
    }
}

/// Apply the children's settled deltas to one (non-scan) node, filling
/// `delta` with the node's own removed/changed slots. `nodes` and `deltas`
/// are indexed by absolute child id — the registry passes the arena
/// prefix below the node, which holds every child because children always
/// have smaller ids.
pub(crate) fn propagate_node<A: Annotation>(
    node: &mut Node<A>,
    delta: &mut NodeDelta,
    nodes: &[Node<A>],
    deltas: &[NodeDelta],
) {
    let Node { op, rows } = node;
    {
        let (child_nodes, child_deltas) = (nodes, deltas);
        match op {
            Op::Scan => unreachable!("scan deltas are seeded, not propagated"),
            Op::Select { child, out_of } => {
                let ch = &child_nodes[*child];
                let cd = &child_deltas[*child];
                for &c in &cd.removed {
                    if let Some(o) = out_of[c] {
                        rows.kill(o);
                        delta.removed.push(o);
                    }
                }
                for &c in &cd.changed {
                    if let Some(o) = out_of[c] {
                        rows.annots[o] = ch.rows.annots[c].clone();
                        delta.changed.push(o);
                    }
                }
            }
            Op::Project {
                child,
                positions,
                out_of,
                contributors,
            } => {
                let ch = &child_nodes[*child];
                let cd = &child_deltas[*child];
                // Reused scratch (returned empty below): steady-state
                // pushes must not grow a fresh Vec per node per turn.
                let mut affected = std::mem::take(&mut delta.affected);
                for &c in &cd.removed {
                    let o = out_of[c];
                    let list = &mut contributors[o];
                    let pos = list
                        .iter()
                        .position(|&x| x == c)
                        .expect("removed input slot was a live contributor");
                    list.remove(pos);
                    affected.push(o);
                }
                for &c in &cd.changed {
                    affected.push(out_of[c]);
                }
                affected.sort_unstable();
                affected.dedup();
                for &o in &affected {
                    let list = &contributors[o];
                    if list.is_empty() {
                        rows.kill(o);
                        delta.removed.push(o);
                        continue;
                    }
                    let mut acc = ch.rows.annots[list[0]].project(positions);
                    for &c in &list[1..] {
                        acc.merge(ch.rows.annots[c].project(positions));
                    }
                    acc.normalize();
                    if acc != rows.annots[o] {
                        rows.annots[o] = acc;
                        delta.changed.push(o);
                    }
                }
                affected.clear();
                delta.affected = affected;
            }
            Op::Join {
                left,
                right,
                layout,
                pair_of,
                left_outs,
                right_outs,
            } => {
                let (lch, rch) = (&child_nodes[*left], &child_nodes[*right]);
                let (ld, rd) = (&child_deltas[*left], &child_deltas[*right]);
                // Kills first: a pair whose other side also changed must
                // not be recomputed from a dead row.
                for &c in &ld.removed {
                    for &o in &left_outs[c] {
                        if rows.alive[o] {
                            rows.kill(o);
                            delta.removed.push(o);
                        }
                    }
                }
                for &c in &rd.removed {
                    for &o in &right_outs[c] {
                        if rows.alive[o] {
                            rows.kill(o);
                            delta.removed.push(o);
                        }
                    }
                }
                let mut affected = std::mem::take(&mut delta.affected);
                for &c in &ld.changed {
                    for &o in &left_outs[c] {
                        if rows.alive[o] {
                            affected.push(o);
                        }
                    }
                }
                for &c in &rd.changed {
                    for &o in &right_outs[c] {
                        if rows.alive[o] {
                            affected.push(o);
                        }
                    }
                }
                affected.sort_unstable();
                affected.dedup();
                for &o in &affected {
                    let (l, r) = pair_of[o];
                    let mut acc = A::join(&lch.rows.annots[l], &rch.rows.annots[r], layout);
                    acc.normalize();
                    if acc != rows.annots[o] {
                        rows.annots[o] = acc;
                        delta.changed.push(o);
                    }
                }
                affected.clear();
                delta.affected = affected;
            }
            Op::Union {
                left,
                right,
                positions,
                from_left,
                from_right,
                sources,
            } => {
                let (lch, rch) = (&child_nodes[*left], &child_nodes[*right]);
                let (ld, rd) = (&child_deltas[*left], &child_deltas[*right]);
                let mut affected = std::mem::take(&mut delta.affected);
                for &c in &ld.removed {
                    let o = from_left[c];
                    sources[o].0 = None;
                    affected.push(o);
                }
                for &c in &rd.removed {
                    let o = from_right[c];
                    sources[o].1 = None;
                    affected.push(o);
                }
                for &c in &ld.changed {
                    affected.push(from_left[c]);
                }
                for &c in &rd.changed {
                    affected.push(from_right[c]);
                }
                affected.sort_unstable();
                affected.dedup();
                for &o in &affected {
                    let mut acc = match sources[o] {
                        (None, None) => {
                            rows.kill(o);
                            delta.removed.push(o);
                            continue;
                        }
                        (Some(l), None) => lch.rows.annots[l].clone(),
                        (Some(l), Some(r)) => {
                            let mut acc = lch.rows.annots[l].clone();
                            acc.merge(rch.rows.annots[r].project(positions));
                            acc
                        }
                        (None, Some(r)) => rch.rows.annots[r].project(positions),
                    };
                    acc.normalize();
                    if acc != rows.annots[o] {
                        rows.annots[o] = acc;
                        delta.changed.push(o);
                    }
                }
                affected.clear();
                delta.affected = affected;
            }
        }
    }
}

/// ⊕-merge bucket accumulator shared by the project and union builds:
/// interned output tuples with contributor bookkeeping. The bucket index
/// is fingerprint-keyed (candidates verified against `tuples`), so a
/// derivation lookup hashes one `u64` instead of the tuple's values.
struct BucketAcc<A> {
    index: TupleSlotMap,
    tuples: Vec<Arc<Tuple>>,
    annots: Vec<A>,
}

impl<A: Annotation> BucketAcc<A> {
    fn with_capacity(n: usize) -> BucketAcc<A> {
        BucketAcc {
            index: TupleSlotMap::with_capacity(n),
            tuples: Vec::with_capacity(n),
            annots: Vec::with_capacity(n),
        }
    }

    /// Insert a derivation of `t`, ⊕-merging into an existing bucket.
    /// Returns the bucket slot.
    fn add(&mut self, t: Arc<Tuple>, a: A) -> usize {
        if let Some(o) = self.index.get(&t, &self.tuples) {
            self.annots[o].merge(a);
            o
        } else {
            let o = self.annots.len();
            self.index.insert(&t, o);
            self.tuples.push(t);
            self.annots.push(a);
            o
        }
    }

    /// Normalize every bucket (sharded over `pool`) and hand the rows over.
    fn into_rows(self, pool: ParPool) -> Rows<A> {
        let BucketAcc { tuples, annots, .. } = self;
        let annots = pool.par_map_owned(annots, BUILD_GRAIN, |mut a| {
            a.normalize();
            a
        });
        Rows::new(tuples, annots)
    }
}

/// The join build/probe: tables keyed by `u64` key fingerprints through
/// an identity-hash [`FpMap`] — no per-row key allocation, no byte-walking
/// hash. Candidates sharing a fingerprint are verified against the actual
/// key values before they join (an integer compare per attribute under
/// interning), so collisions — including the forced-collision test mode —
/// only cost time, never correctness. The build shards by key fingerprint
/// (shard `s` owns the keys landing on it, so per-key row order stays
/// ascending) and the probe runs over left-row chunks, so the sequential
/// emission order is preserved exactly; one shard is the exact sequential
/// build.
fn build_join_produced<A: Annotation>(
    lrows: &Rows<A>,
    l_keys: &[usize],
    rrows: &Rows<A>,
    r_keys: &[usize],
    layout: &JoinLayout,
    pool: ParPool,
) -> Vec<(usize, usize, Arc<Tuple>, A)> {
    let mode = LayoutMode::current();
    let shards = if rrows.tuples.len() >= 2 * BUILD_GRAIN {
        pool.threads()
    } else {
        1
    };
    let tables: Vec<FpMap<Bucket<usize>>> = if shards == 1 {
        let mut table: FpMap<Bucket<usize>> =
            FpMap::with_capacity_and_hasher(rrows.tuples.len(), Default::default());
        for (idx, t) in rrows.tuples.iter().enumerate() {
            table
                .entry(mode.key_fp(t, r_keys))
                .and_modify(|b| b.push(idx))
                .or_insert(Bucket::One(idx));
        }
        vec![table]
    } else {
        // One parallel pass buckets row indices per shard (range-order
        // concat keeps each shard's rows ascending), so every shard then
        // scans only its own rows — O(|R|) partition work total, not
        // O(shards · |R|). The shard of a row is its key fingerprint,
        // computed once and reused as the table key.
        let bucketed: Vec<Vec<Vec<(u64, usize)>>> =
            pool.par_ranges(rrows.tuples.len(), BUILD_GRAIN, |range| {
                let mut local: Vec<Vec<(u64, usize)>> = vec![Vec::new(); shards];
                for i in range {
                    let fp = mode.key_fp(&rrows.tuples[i], r_keys);
                    local[(fp % shards as u64) as usize].push((fp, i));
                }
                vec![local]
            });
        let mut shard_rows: Vec<Vec<(u64, usize)>> = vec![Vec::new(); shards];
        for local in bucketed {
            for (s, rows) in local.into_iter().enumerate() {
                shard_rows[s].extend(rows);
            }
        }
        pool.par_indices(shards, |s| {
            let mut table: FpMap<Bucket<usize>> =
                FpMap::with_capacity_and_hasher(shard_rows[s].len(), Default::default());
            for &(fp, idx) in &shard_rows[s] {
                table
                    .entry(fp)
                    .and_modify(|b| b.push(idx))
                    .or_insert(Bucket::One(idx));
            }
            table
        })
    };
    pool.par_ranges(lrows.tuples.len(), BUILD_GRAIN, |range| {
        let mut out = Vec::new();
        for li in range {
            let lt = &lrows.tuples[li];
            let fp = mode.key_fp(lt, l_keys);
            let table = if shards == 1 {
                &tables[0]
            } else {
                &tables[(fp % shards as u64) as usize]
            };
            let Some(matches) = table.get(&fp) else {
                continue;
            };
            for &ri in matches.as_slice() {
                let rt = &rrows.tuples[ri];
                let keys_match = l_keys
                    .iter()
                    .zip(r_keys)
                    .all(|(&lk, &rk)| lt.get(lk) == rt.get(rk));
                if !keys_match {
                    continue;
                }
                let mut a = A::join(&lrows.annots[li], &rrows.annots[ri], layout);
                a.normalize();
                out.push((li, ri, Arc::new(lt.join_concat(rt, &layout.right_extra)), a));
            }
        }
        out
    })
}

/// Natural-join bookkeeping off the two operand schemas: the key positions
/// on each side (shared attributes, left-schema order) and the annotation
/// [`JoinLayout`].
pub(crate) fn join_keys_and_layout(
    ls: &Schema,
    rs: &Schema,
) -> (Vec<usize>, Vec<usize>, JoinLayout) {
    let shared: Vec<Attr> = ls.shared_with(rs);
    let l_keys: Vec<usize> = shared
        .iter()
        .map(|a| ls.index_of(a).expect("shared attr"))
        .collect();
    let r_keys: Vec<usize> = shared
        .iter()
        .map(|a| rs.index_of(a).expect("shared attr"))
        .collect();
    let layout = JoinLayout {
        left_arity: ls.arity(),
        merge_from_right: ls.attrs().iter().map(|a| rs.index_of(a)).collect(),
        right_extra: rs
            .attrs()
            .iter()
            .enumerate()
            .filter(|(_, a)| !ls.contains(a))
            .map(|(i, _)| i)
            .collect(),
    };
    (l_keys, r_keys, layout)
}

/// Seed a scan node's rows from a base relation: slot `i` ↔ base row `i`,
/// annotations from [`Annotation::from_scan`]. One parallel sweep produces
/// both columns (two passes would double the spawn/join rounds on this hot
/// path).
pub(crate) fn build_scan_rows<A: Annotation>(
    r: &crate::relation::Relation,
    pool: ParPool,
) -> Rows<A> {
    let schema = r.schema();
    // Shared handles off the relation's cache: a refcount bump per row
    // instead of a deep tuple clone per build.
    let tuples: Vec<Arc<Tuple>> = r.shared_tuples().to_vec();
    let annots: Vec<A> = pool.par_ranges(tuples.len(), BUILD_GRAIN, |range| {
        range
            .map(|row| {
                A::from_scan(
                    Tid {
                        rel: r.name().clone(),
                        row,
                    },
                    schema,
                )
            })
            .collect()
    });
    Rows::new(tuples, annots)
}

/// Build a select node over its child's rows (`child` is the child's node
/// id, recorded in the op). Predicate evaluation shards over the pool;
/// errors surface in row order during the sequential assembly.
pub(crate) fn build_select_node<A: Annotation>(
    child: usize,
    ch: &Rows<A>,
    schema: &Schema,
    pred: &crate::predicate::Pred,
    pool: ParPool,
) -> Result<(Op, Rows<A>)> {
    let verdicts: Vec<Result<bool>> = pool.par_ranges(ch.tuples.len(), BUILD_GRAIN, |range| {
        range.map(|i| pred.eval(schema, &ch.tuples[i])).collect()
    });
    let mut out_of = Vec::with_capacity(ch.tuples.len());
    let mut kept: Vec<usize> = Vec::new();
    for (i, verdict) in verdicts.into_iter().enumerate() {
        if verdict? {
            out_of.push(Some(kept.len()));
            kept.push(i);
        } else {
            out_of.push(None);
        }
    }
    let tuples: Vec<Arc<Tuple>> = kept.iter().map(|&i| ch.tuples[i].clone()).collect();
    let annots: Vec<A> = pool.par_ranges(kept.len(), BUILD_GRAIN, |range| {
        range.map(|k| ch.annots[kept[k]].clone()).collect()
    });
    Ok((Op::Select { child, out_of }, Rows::new(tuples, annots)))
}

/// Build a project node over its child's rows: parallel per-row
/// projection, sequential ⊕-intern in derivation order, parallel
/// normalization.
pub(crate) fn build_project_node<A: Annotation>(
    child: usize,
    ch: &Rows<A>,
    positions: Vec<usize>,
    pool: ParPool,
) -> (Op, Rows<A>) {
    let projected: Vec<(Arc<Tuple>, A)> = pool.par_ranges(ch.tuples.len(), BUILD_GRAIN, |range| {
        range
            .map(|c| {
                (
                    Arc::new(ch.tuples[c].project_positions(&positions)),
                    ch.annots[c].project(&positions),
                )
            })
            .collect()
    });
    let mut acc = BucketAcc::with_capacity(projected.len());
    let mut out_of = Vec::with_capacity(projected.len());
    for (t, a) in projected {
        out_of.push(acc.add(t, a));
    }
    let mut contributors = vec![Vec::new(); acc.annots.len()];
    for (c, &o) in out_of.iter().enumerate() {
        contributors[o].push(c);
    }
    let rows = acc.into_rows(pool);
    (
        Op::Project {
            child,
            positions,
            out_of,
            contributors,
        },
        rows,
    )
}

/// Build a join node over its operands' rows. Build on the right, probe
/// with the left ([`build_join_produced`]); the retained state is the pair
/// map plus the reverse adjacency, not the table itself. Each side arrives
/// as `(node id, rows, key positions)`.
pub(crate) fn build_join_node<A: Annotation>(
    left_side: (usize, &Rows<A>, &[usize]),
    right_side: (usize, &Rows<A>, &[usize]),
    layout: JoinLayout,
    pool: ParPool,
) -> (Op, Rows<A>) {
    let (left, lrows, l_keys) = left_side;
    let (right, rrows, r_keys) = right_side;
    let produced = build_join_produced(lrows, l_keys, rrows, r_keys, &layout, pool);
    // Sequential assembly: stable output slots in emission order. The
    // joined tuple embeds the left tuple and determines the right one, and
    // node outputs are sets — each output has exactly one (l, r) pair.
    let mut tuples = Vec::with_capacity(produced.len());
    let mut annots: Vec<A> = Vec::with_capacity(produced.len());
    let mut pair_of = Vec::with_capacity(produced.len());
    let mut left_outs = vec![Vec::new(); lrows.tuples.len()];
    let mut right_outs = vec![Vec::new(); rrows.tuples.len()];
    for (li, ri, t, a) in produced {
        let o = tuples.len();
        tuples.push(t);
        annots.push(a);
        pair_of.push((li, ri));
        left_outs[li].push(o);
        right_outs[ri].push(o);
    }
    debug_assert_eq!(
        tuples
            .iter()
            .map(|t| &**t)
            .collect::<std::collections::HashSet<_>>()
            .len(),
        tuples.len(),
        "join outputs are distinct: one derivation per output"
    );
    (
        Op::Join {
            left,
            right,
            layout,
            pair_of,
            left_outs,
            right_outs,
        },
        Rows::new(tuples, annots),
    )
}

/// Build a union node over its operands' rows: parallel left passthrough
/// and right alignment (`positions` maps the right schema onto the left
/// attribute order), sequential ⊕-intern left branch first, parallel
/// normalization.
pub(crate) fn build_union_node<A: Annotation>(
    left: usize,
    right: usize,
    lrows: &Rows<A>,
    rrows: &Rows<A>,
    positions: Vec<usize>,
    pool: ParPool,
) -> (Op, Rows<A>) {
    let left_in: Vec<(Arc<Tuple>, A)> = pool.par_ranges(lrows.tuples.len(), BUILD_GRAIN, |range| {
        range
            .map(|i| (lrows.tuples[i].clone(), lrows.annots[i].clone()))
            .collect()
    });
    let right_in: Vec<(Arc<Tuple>, A)> =
        pool.par_ranges(rrows.tuples.len(), BUILD_GRAIN, |range| {
            range
                .map(|i| {
                    (
                        Arc::new(rrows.tuples[i].project_positions(&positions)),
                        rrows.annots[i].project(&positions),
                    )
                })
                .collect()
        });
    let mut acc = BucketAcc::with_capacity(left_in.len() + right_in.len());
    let mut from_left = Vec::with_capacity(left_in.len());
    for (t, a) in left_in {
        from_left.push(acc.add(t, a));
    }
    let mut from_right = Vec::with_capacity(right_in.len());
    for (t, a) in right_in {
        from_right.push(acc.add(t, a));
    }
    let mut sources = vec![(None, None); acc.annots.len()];
    for (c, &o) in from_left.iter().enumerate() {
        sources[o].0 = Some(c);
    }
    for (c, &o) in from_right.iter().enumerate() {
        sources[o].1 = Some(c);
    }
    let rows = acc.into_rows(pool);
    (
        Op::Union {
            left,
            right,
            positions,
            from_left,
            from_right,
            sources,
        },
        rows,
    )
}
