//! Theorem 2.6 — minimum source deletion for **chain joins** via min-cut.
//!
//! For a normal-form PJ query whose joined relations form a chain
//! `R_1 ⋈ … ⋈ R_k` (only consecutive relations share attributes), the
//! paper's construction:
//!
//! 1. drop from each `R_i` the tuples that disagree with the target `t_0`
//!    on `R_i`'s projected attributes;
//! 2. build a layered graph — one node per surviving tuple, an edge between
//!    consecutive layers when the tuples agree on the shared attributes;
//! 3. connect a source `s` to all of layer 1 and all of layer `k` to a sink
//!    `t`, give nodes capacity 1 and edges capacity ∞ (node-splitting);
//! 4. every `s–t` path is a witness of `t_0`, so a minimum `s–t` node cut is
//!    a minimum source deletion.
//!
//! This gives a **polynomial** algorithm for a query class whose general
//! form is set-cover-hard — the special case the dichotomy table footnotes.

use crate::deletion::index::WitnessIndex;
use crate::deletion::{Deletion, DeletionContext};
use crate::error::{CoreError, Result};
use dap_flow::UnitNodeGraph;
use dap_relalg::{
    detect_chain_join, eval, Attr, ChainJoin, Database, Query, RelName, Schema, Tid, Tuple,
};
use std::collections::{BTreeSet, HashMap};

/// Minimum source deletion for a chain-join query (optional outer
/// projection over a join of distinct relations whose shared-attribute graph
/// is a path). Errors with [`CoreError::NotAChain`] if the query does not
/// have that shape.
pub fn chain_min_source_deletion(q: &Query, db: &Database, target: &Tuple) -> Result<Deletion> {
    let catalog = db.catalog();
    let chain = detect_chain_join(q, &catalog).ok_or(CoreError::NotAChain)?;
    let out_schema = dap_relalg::output_schema(q, &catalog)?;
    if target.arity() != out_schema.arity() {
        return Err(CoreError::TargetNotInView {
            tuple: target.clone(),
        });
    }

    // Step 1: per layer, the tuples that agree with the target on the
    // layer's projected attributes.
    struct Layer {
        rel: dap_relalg::RelName,
        schema: Schema,
        rows: Vec<usize>, // surviving row indices
    }
    let mut layers: Vec<Layer> = Vec::with_capacity(chain.order.len());
    for rel_name in &chain.order {
        let rel = db.require(rel_name)?;
        let projected: Vec<(usize, &dap_relalg::Value)> = rel
            .schema()
            .attrs()
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                out_schema
                    .index_of(a)
                    .map(|out_idx| (i, target.get(out_idx)))
            })
            .collect();
        let rows = rel
            .tuples()
            .iter()
            .enumerate()
            .filter(|(_, u)| projected.iter().all(|(i, v)| u.get(*i) == *v))
            .map(|(row, _)| row)
            .collect();
        layers.push(Layer {
            rel: rel.name().clone(),
            schema: rel.schema().clone(),
            rows,
        });
    }

    // Step 2–3: the node-split layered network.
    let total: usize = layers.iter().map(|l| l.rows.len()).sum();
    let mut graph = UnitNodeGraph::new(total);
    let mut node_of: Vec<Vec<usize>> = Vec::with_capacity(layers.len());
    let mut next = 0usize;
    for layer in &layers {
        node_of.push(
            layer
                .rows
                .iter()
                .map(|_| {
                    let n = next;
                    next += 1;
                    n
                })
                .collect(),
        );
    }
    for (i, layer) in layers.iter().enumerate() {
        if i == 0 {
            for &n in &node_of[0] {
                graph.connect_source(n);
            }
        }
        if i + 1 == layers.len() {
            for &n in &node_of[i] {
                graph.connect_sink(n);
            }
            break;
        }
        let nxt = &layers[i + 1];
        let shared: Vec<Attr> = layer.schema.shared_with(&nxt.schema);
        let l_pos: Vec<usize> = shared
            .iter()
            .map(|a| layer.schema.index_of(a).expect("shared attr"))
            .collect();
        let r_pos: Vec<usize> = shared
            .iter()
            .map(|a| nxt.schema.index_of(a).expect("shared attr"))
            .collect();
        let lrel = db.require(&layer.rel)?;
        let rrel = db.require(&nxt.rel)?;
        for (li, &lrow) in layer.rows.iter().enumerate() {
            let lt = lrel.tuple_at(lrow).expect("surviving row");
            for (ri, &rrow) in nxt.rows.iter().enumerate() {
                let rt = rrel.tuple_at(rrow).expect("surviving row");
                let agree = l_pos
                    .iter()
                    .zip(&r_pos)
                    .all(|(&lp, &rp)| lt.get(lp) == rt.get(rp));
                if agree {
                    graph.add_edge(node_of[i][li], node_of[i + 1][ri]);
                }
            }
        }
    }

    // Step 4: min node cut = minimum source deletion.
    let (value, cut_nodes) = graph.min_node_cut();
    if value == 0 {
        // No s–t path means no witness: the target is not in the view.
        return Err(CoreError::TargetNotInView {
            tuple: target.clone(),
        });
    }
    // Map node ids back to tids.
    let mut deletions = BTreeSet::new();
    for (i, layer) in layers.iter().enumerate() {
        for (li, &row) in layer.rows.iter().enumerate() {
            if cut_nodes.contains(&node_of[i][li]) {
                deletions.insert(Tid {
                    rel: layer.rel.clone(),
                    row,
                });
            }
        }
    }
    debug_assert_eq!(deletions.len() as u64, value);

    // Side effects by re-evaluation (the why-provenance of a chain join can
    // be exponentially large; the view diff is not).
    let before = eval(q, db)?;
    if !before.contains(target) {
        return Err(CoreError::TargetNotInView {
            tuple: target.clone(),
        });
    }
    let after = eval(q, &db.without(&deletions))?;
    debug_assert!(!after.contains(target), "the cut must delete the target");
    let view_side_effects: BTreeSet<Tuple> = before
        .tuples
        .iter()
        .filter(|u| *u != target && !after.contains(u))
        .cloned()
        .collect();
    Ok(Deletion {
        deletions,
        view_side_effects,
    })
}

/// Theorem 2.6 on a **maintained** context: build the layered witness
/// network from the target's *patched* why-provenance instead of re-scanning
/// the original database. Nodes are the target's support tids (one layer
/// per chain relation), and edges connect consecutive-layer tids that
/// co-occur in some witness. By the chain property (non-consecutive
/// relations share no attributes) every source–sink path through that graph
/// — including paths mixing tuples from different witnesses — is itself a
/// minimal witness of the target already present in the provenance, so the
/// path set *is* the witness set and a minimum node cut is a minimum
/// hitting set, i.e. a minimum source deletion **against the current
/// view**. Side effects are read off the index counters (patched state
/// again), not off a re-evaluation of the stale original database. This is
/// [`DeletionContext::solve`]'s chain arm; it leaves the index clean.
pub(crate) fn chain_cut_on(chain: &ChainJoin, idx: &mut WitnessIndex) -> Deletion {
    let layer_of: HashMap<&RelName, usize> = chain
        .order
        .iter()
        .enumerate()
        .map(|(i, r)| (r, i))
        .collect();
    let layers = chain.order.len();
    let slot_layer: Vec<usize> = idx.support().iter().map(|tid| layer_of[&tid.rel]).collect();
    let mut graph = UnitNodeGraph::new(idx.support().len());
    let mut sources = BTreeSet::new();
    let mut sinks = BTreeSet::new();
    let mut edges = BTreeSet::new();
    for wi in 0..idx.target_witness_count() {
        let mut by_layer: Vec<Option<usize>> = vec![None; layers];
        for &slot in idx.target_witness_members(wi) {
            debug_assert!(
                by_layer[slot_layer[slot]].is_none(),
                "a chain witness has one tuple per relation"
            );
            by_layer[slot_layer[slot]] = Some(slot);
        }
        let path: Vec<usize> = by_layer
            .into_iter()
            .map(|s| s.expect("a chain witness covers every layer"))
            .collect();
        sources.insert(path[0]);
        sinks.insert(path[layers - 1]);
        for w in path.windows(2) {
            edges.insert((w[0], w[1]));
        }
    }
    for &s in &sources {
        graph.connect_source(s);
    }
    for &t in &sinks {
        graph.connect_sink(t);
    }
    for &(a, b) in &edges {
        graph.add_edge(a, b);
    }
    let (value, cut) = graph.min_node_cut();
    debug_assert!(value >= 1, "a target in the view has a witness path");
    debug_assert_eq!(value as usize, cut.len());
    idx.deletion_of(cut.iter().copied())
}

impl DeletionContext {
    /// [`chain_min_source_deletion`] against this context's **patched**
    /// state: after [`DeletionContext::apply_delete`] commits, the free
    /// function keeps solving over the original database (stale cuts over
    /// tuples that no longer exist); this method rebuilds the Thm 2.6 flow
    /// network from the maintained why-provenance, so committed tuples are
    /// never proposed and costs track the current view. Within a context
    /// the witness lists are already materialized, so — unlike the free
    /// function, which deliberately avoids why-provenance — reading them
    /// costs nothing extra. Errors with [`CoreError::NotAChain`] on
    /// non-chain queries and [`CoreError::TargetNotInView`] when the
    /// (current) view lacks the target.
    pub fn chain_min_source_deletion(&self, target: &Tuple) -> Result<Deletion> {
        let chain =
            detect_chain_join(self.query(), &self.db().catalog()).ok_or(CoreError::NotAChain)?;
        let (_, mut idx) = self.instance_and_index(target)?;
        Ok(chain_cut_on(&chain, &mut idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deletion::source_side_effect::min_source_deletion;
    use crate::deletion::view_side_effect::ExactOptions;
    use crate::deletion::Objective;
    use crate::dichotomy::SolverKind;
    use dap_relalg::{parse_database, parse_query, tuple};

    fn chain_db() -> Database {
        parse_database(
            "relation R1(A, B) { (a, b1), (a, b2) }
             relation R2(B, C) { (b1, c1), (b2, c1), (b2, c2) }
             relation R3(C, D) { (c1, d), (c2, d) }",
        )
        .unwrap()
    }

    #[test]
    fn three_layer_chain_minimum() {
        let db = chain_db();
        let q = parse_query("project(join(join(scan R1, scan R2), scan R3), [A, D])").unwrap();
        let t = tuple(["a", "d"]);
        let sol = chain_min_source_deletion(&q, &db, &t).unwrap();
        // Exact hitting-set agrees on the size.
        let exact = min_source_deletion(&q, &db, &t).unwrap();
        assert_eq!(sol.source_cost(), exact.source_cost());
        // Verify the deletion really removes the target.
        let after = eval(&q, &db.without(&sol.deletions)).unwrap();
        assert!(!after.contains(&t));
    }

    #[test]
    fn bottleneck_is_found() {
        // All paths go through the single (x, c) tuple.
        let db = parse_database(
            "relation R1(A, B) { (a1, x), (a2, x), (a3, x) }
             relation R2(B, C) { (x, c) }
             relation R3(C, D) { (c, d1), (c, d2) }",
        )
        .unwrap();
        let q = parse_query("project(join(join(scan R1, scan R2), scan R3), [A])").unwrap();
        let t = tuple(["a1"]);
        let sol = chain_min_source_deletion(&q, &db, &t).unwrap();
        // The target (a1) requires only paths through (a1,x): deleting
        // (a1,x) is the unique minimum of size 1 — the filtered first layer
        // contains only (a1, x).
        assert_eq!(sol.source_cost(), 1);
        assert_eq!(
            sol.deletions,
            BTreeSet::from([db.tid_of("R1", &tuple(["a1", "x"])).unwrap()])
        );
    }

    #[test]
    fn projection_filter_restricts_layers() {
        let db = chain_db();
        // Project A and C: target fixes C = c1, so (b2,c2), (c2,d) rows are
        // irrelevant.
        let q = parse_query("project(join(join(scan R1, scan R2), scan R3), [A, C])").unwrap();
        let t = tuple(["a", "c1"]);
        let sol = chain_min_source_deletion(&q, &db, &t).unwrap();
        let exact = min_source_deletion(&q, &db, &t).unwrap();
        assert_eq!(sol.source_cost(), exact.source_cost());
        let after = eval(&q, &db.without(&sol.deletions)).unwrap();
        assert!(!after.contains(&t));
    }

    #[test]
    fn two_relation_chain_agrees_with_exact() {
        let db = parse_database(
            "relation R1(A, B) { (a, x1), (a, x2), (a2, x1) }
             relation R2(B, C) { (x1, c), (x2, c) }",
        )
        .unwrap();
        let q = parse_query("project(join(scan R1, scan R2), [A, C])").unwrap();
        for t in eval(&q, &db).unwrap().tuples.clone() {
            let chain = chain_min_source_deletion(&q, &db, &t).unwrap();
            let exact = min_source_deletion(&q, &db, &t).unwrap();
            assert_eq!(chain.source_cost(), exact.source_cost(), "target {t}");
        }
    }

    #[test]
    fn rejects_non_chain_and_missing_target() {
        let db = chain_db();
        let q = parse_query("project(join(scan R1, scan R1), [A])").unwrap();
        assert!(matches!(
            chain_min_source_deletion(&q, &db, &tuple(["a"])),
            Err(CoreError::NotAChain)
        ));
        let q = parse_query("project(join(join(scan R1, scan R2), scan R3), [A, D])").unwrap();
        assert!(matches!(
            chain_min_source_deletion(&q, &db, &tuple(["zz", "zz"])),
            Err(CoreError::TargetNotInView { .. })
        ));
    }

    #[test]
    fn context_chain_cut_matches_free_function_on_a_fresh_context() {
        let db = chain_db();
        let q = parse_query("project(join(join(scan R1, scan R2), scan R3), [A, D])").unwrap();
        let ctx = DeletionContext::new(&q, &db).unwrap();
        for t in eval(&q, &db).unwrap().tuples.clone() {
            let via_ctx = ctx.chain_min_source_deletion(&t).unwrap();
            let via_free = chain_min_source_deletion(&q, &db, &t).unwrap();
            assert_eq!(via_ctx.source_cost(), via_free.source_cost(), "target {t}");
            assert_eq!(via_ctx.view_cost(), via_free.view_cost(), "target {t}");
            let exact = min_source_deletion(&q, &db, &t).unwrap();
            assert_eq!(via_ctx.source_cost(), exact.source_cost(), "target {t}");
        }
    }

    /// The headline regression: after a commit, the free function solves
    /// the *original* database (silently wrong), the context method the
    /// patched one.
    #[test]
    fn chain_cut_reads_the_patched_state_after_commits() {
        let db = parse_database(
            "relation R1(A, B) { (a, b1), (a, b2) }
             relation R2(B, C) { (b1, c1), (b2, c2) }
             relation R3(C, D) { (c1, d), (c2, d), (c1, e) }",
        )
        .unwrap();
        let q = parse_query("project(join(join(scan R1, scan R2), scan R3), [A, D])").unwrap();
        let t = tuple(["a", "d"]);
        let mut ctx = DeletionContext::new(&q, &db).unwrap();
        // Commit R2(b1,c1): (a,e) dies, (a,d) drops to its b2-c2 witness.
        let committed = BTreeSet::from([db.tid_of("R2", &tuple(["b1", "c1"])).unwrap()]);
        ctx.apply_delete(&committed);
        assert!(!ctx.contains(&tuple(["a", "e"])));

        let sol = ctx.chain_min_source_deletion(&t).unwrap();
        assert_eq!(sol.source_cost(), 1, "one surviving witness path");
        assert!(
            sol.deletions.is_disjoint(ctx.committed()),
            "a chain-class solve after apply_delete must never propose an \
             already-deleted tuple"
        );
        // It agrees with a fresh solve over the actually-current database.
        let db_now = db.without(ctx.committed());
        let fresh = chain_min_source_deletion(&q, &db_now, &t).unwrap();
        assert_eq!(sol.source_cost(), fresh.source_cost());
        assert_eq!(sol.view_side_effects, fresh.view_side_effects);
        // …while the pre-fix path — the free function over the context's
        // original database — still sees two disjoint witness paths and
        // returns a stale min cut of 2: the silent wrong answer this PR
        // fixes.
        let stale = chain_min_source_deletion(&q, &db, &t).unwrap();
        assert_eq!(stale.source_cost(), 2, "stale network, stale cut");
        // The routed solve (cached index) returns the identical solution.
        let (routed, kind) = ctx
            .solve(&t, Objective::Source, &ExactOptions::default())
            .unwrap();
        assert_eq!(kind, SolverKind::ChainMinCut);
        assert_eq!(routed, sol);
        assert_eq!(ctx.cached_index_count(), 1);
        // A target an earlier commit removed errors as not-in-view instead
        // of resolving against the stale database.
        assert!(matches!(
            ctx.chain_min_source_deletion(&tuple(["a", "e"])),
            Err(CoreError::TargetNotInView { .. })
        ));
        assert!(matches!(
            ctx.solve(
                &tuple(["a", "e"]),
                Objective::Source,
                &ExactOptions::default()
            ),
            Err(CoreError::TargetNotInView { .. })
        ));
    }

    #[test]
    fn context_chain_cut_side_effects_match_reevaluation_after_commit() {
        let db = chain_db();
        let q = parse_query("project(join(join(scan R1, scan R2), scan R3), [A, D])").unwrap();
        let mut ctx = DeletionContext::new(&q, &db).unwrap();
        // Commit R2(b2,c2) first; (a,d) keeps witnesses through c1.
        let committed = BTreeSet::from([db.tid_of("R2", &tuple(["b2", "c2"])).unwrap()]);
        ctx.apply_delete(&committed);
        let t = tuple(["a", "d"]);
        let (sol, kind) = ctx
            .solve(&t, Objective::Source, &ExactOptions::default())
            .unwrap();
        assert_eq!(kind, SolverKind::ChainMinCut);
        // Verify against re-evaluation on the patched database.
        let db_now = db.without(ctx.committed());
        let before = eval(&q, &db_now).unwrap();
        let all: BTreeSet<Tid> = sol.deletions.iter().cloned().collect();
        let after = eval(&q, &db_now.without(&all)).unwrap();
        assert!(!after.contains(&t));
        let dead: BTreeSet<Tuple> = before
            .tuples
            .iter()
            .filter(|u| **u != t && !after.contains(u))
            .cloned()
            .collect();
        assert_eq!(sol.view_side_effects, dead);
        // And the cost is optimal on the patched state.
        let exact = min_source_deletion(&q, &db_now, &t).unwrap();
        assert_eq!(sol.source_cost(), exact.source_cost());
    }

    #[test]
    fn context_chain_cut_rejects_non_chain() {
        let db = chain_db();
        let q = parse_query("project(join(scan R1, scan R1), [A])").unwrap();
        assert!(DeletionContext::new(&q, &db)
            .map(|ctx| matches!(
                ctx.chain_min_source_deletion(&tuple(["a"])),
                Err(CoreError::NotAChain)
            ))
            .unwrap_or(true));
    }

    #[test]
    fn pure_join_chain_without_projection() {
        let db = parse_database(
            "relation R1(A, B) { (a, b) }
             relation R2(B, C) { (b, c) }",
        )
        .unwrap();
        let q = parse_query("join(scan R1, scan R2)").unwrap();
        let t = tuple(["a", "b", "c"]);
        let sol = chain_min_source_deletion(&q, &db, &t).unwrap();
        assert_eq!(sol.source_cost(), 1);
        assert!(sol.is_side_effect_free());
    }
}
