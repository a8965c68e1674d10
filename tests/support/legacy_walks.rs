//! The original single-purpose provenance walks — why-provenance,
//! where-provenance and Boolean lineage by direct recursion over the query
//! — plus the multipass placement solver built on them: the reference
//! oracles `tests/prop_provenance.rs` pins the generic annotated engine
//! against. Each walk is independent of `dap_relalg::eval_annotated`, so
//! agreement is evidence, not tautology.

use dap::core::{CoreError, Placement};
use dap::provenance::{minimize, propagate, BoolExpr, SourceLoc, ViewLoc, WhyProvenance, Witness};
use dap::relalg::{output_schema, Attr, Database, Query, Result, Schema, Tid, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Per-attribute source-location sets of every output tuple.
pub type WhereMap = BTreeMap<Tuple, Vec<BTreeSet<SourceLoc>>>;

/// The Boolean lineage expression of every output tuple.
pub type ExprMap = BTreeMap<Tuple, BoolExpr>;

/// The original standalone witness walk.
pub fn why_provenance_legacy(q: &Query, db: &Database) -> Result<WhyProvenance> {
    let catalog = db.catalog();
    output_schema(q, &catalog)?;
    let (schema, map) = why_walk(q, db)?;
    Ok(WhyProvenance::from_parts(schema, map))
}

/// The original standalone location walk: the view schema and, per output
/// tuple, one source-location set per schema position.
pub fn where_provenance_legacy(q: &Query, db: &Database) -> Result<(Schema, WhereMap)> {
    let catalog = db.catalog();
    output_schema(q, &catalog)?;
    where_walk(q, db)
}

/// The original standalone expression walk. Its expressions may differ
/// *structurally* from the engine's (operand grouping) but are logically
/// equivalent — compare via [`BoolExpr::prime_implicants`] or
/// [`BoolExpr::eval_deleted`].
pub fn provenance_exprs_legacy(q: &Query, db: &Database) -> Result<(Schema, ExprMap)> {
    let catalog = db.catalog();
    output_schema(q, &catalog)?;
    expr_walk(q, db)
}

/// The multipass placement solver: candidates from the standalone backward
/// walk, then **one full forward propagation per candidate** — the
/// cross-check oracle of the batched `PlacementIndex`.
pub fn multipass_min_side_effect_placement(
    q: &Query,
    db: &Database,
    target: &ViewLoc,
) -> dap::core::Result<Placement> {
    let (schema, wp) = where_provenance_legacy(q, db)?;
    let candidates: &BTreeSet<SourceLoc> = schema
        .index_of(&target.attr)
        .and_then(|idx| wp.get(&target.tuple).map(|sets| &sets[idx]))
        .ok_or_else(|| CoreError::TargetLocationNotInView {
            loc: target.clone(),
        })?;
    if candidates.is_empty() {
        return Err(CoreError::NoCandidateLocation {
            loc: target.clone(),
        });
    }
    let mut best: Option<Placement> = None;
    for cand in candidates {
        // One whole tree walk per candidate — the cost the batched index
        // eliminates.
        let mut reached = propagate(q, db, cand)?;
        debug_assert!(reached.contains(target), "candidate must reach the target");
        reached.remove(target);
        let better = match &best {
            None => true,
            Some(b) => reached.len() < b.side_effects.len(),
        };
        if better {
            let done = reached.is_empty();
            best = Some(Placement {
                source: cand.clone(),
                side_effects: reached,
            });
            if done {
                break; // cannot beat zero side effects
            }
        }
    }
    Ok(best.expect("candidates were non-empty"))
}

type WhyMap = BTreeMap<Tuple, Vec<Witness>>;

fn why_walk(q: &Query, db: &Database) -> Result<(Schema, WhyMap)> {
    match q {
        Query::Scan(rel) => {
            let r = db.require(rel)?;
            let map = r
                .tuples()
                .iter()
                .enumerate()
                .map(|(row, t)| {
                    let w: Witness = [Tid {
                        rel: r.name().clone(),
                        row,
                    }]
                    .into_iter()
                    .collect();
                    (t.clone(), vec![w])
                })
                .collect();
            Ok((r.schema().clone(), map))
        }
        Query::Select { input, pred } => {
            let (schema, map) = why_walk(input, db)?;
            let mut out = WhyMap::new();
            for (t, ws) in map {
                if pred.eval(&schema, &t)? {
                    out.insert(t, ws);
                }
            }
            Ok((schema, out))
        }
        Query::Project { input, attrs } => {
            let (schema, map) = why_walk(input, db)?;
            let out_schema = schema.project(attrs)?;
            let positions = schema.positions_of(attrs)?;
            let mut out = WhyMap::new();
            for (t, ws) in map {
                let key = t.project_positions(&positions);
                out.entry(key).or_default().extend(ws);
            }
            for ws in out.values_mut() {
                *ws = minimize(std::mem::take(ws));
            }
            Ok((out_schema, out))
        }
        Query::Join { left, right } => {
            let (ls, lmap) = why_walk(left, db)?;
            let (rs, rmap) = why_walk(right, db)?;
            let shared: Vec<Attr> = ls.shared_with(&rs);
            let out_schema = ls.join_with(&rs);
            let l_keys: Vec<usize> = shared
                .iter()
                .map(|a| ls.index_of(a).expect("shared"))
                .collect();
            let r_keys: Vec<usize> = shared
                .iter()
                .map(|a| rs.index_of(a).expect("shared"))
                .collect();
            let r_extra: Vec<usize> = rs
                .attrs()
                .iter()
                .enumerate()
                .filter(|(_, a)| !ls.contains(a))
                .map(|(i, _)| i)
                .collect();
            let mut table: HashMap<Vec<Value>, Vec<(&Tuple, &Vec<Witness>)>> =
                HashMap::with_capacity(rmap.len());
            for (t, ws) in &rmap {
                let key = r_keys.iter().map(|&i| t.get(i).clone()).collect::<Vec<_>>();
                table.entry(key).or_default().push((t, ws));
            }
            let mut out = WhyMap::new();
            for (lt, lws) in &lmap {
                let key = l_keys
                    .iter()
                    .map(|&i| lt.get(i).clone())
                    .collect::<Vec<_>>();
                let Some(matches) = table.get(&key) else {
                    continue;
                };
                for (rt, rws) in matches {
                    let joined = lt.join_concat(rt, &r_extra);
                    let combined: Vec<Witness> = lws
                        .iter()
                        .flat_map(|lw| {
                            rws.iter().map(move |rw| {
                                lw.iter().cloned().chain(rw.iter().cloned()).collect()
                            })
                        })
                        .collect();
                    out.entry(joined).or_default().extend(combined);
                }
            }
            for ws in out.values_mut() {
                *ws = minimize(std::mem::take(ws));
            }
            Ok((out_schema, out))
        }
        Query::Union { left, right } => {
            let (ls, lmap) = why_walk(left, db)?;
            let (rs, rmap) = why_walk(right, db)?;
            let positions = rs.positions_of(ls.attrs())?;
            let mut out = lmap;
            for (t, ws) in rmap {
                let aligned = t.project_positions(&positions);
                out.entry(aligned).or_default().extend(ws);
            }
            for ws in out.values_mut() {
                *ws = minimize(std::mem::take(ws));
            }
            Ok((ls, out))
        }
        Query::Rename { input, mapping } => {
            let (schema, map) = why_walk(input, db)?;
            Ok((schema.rename(mapping)?, map))
        }
    }
}

type LocSets = Vec<BTreeSet<SourceLoc>>;

fn merge_into(dst: &mut LocSets, src: &LocSets) {
    for (d, s) in dst.iter_mut().zip(src) {
        d.extend(s.iter().cloned());
    }
}

fn where_walk(q: &Query, db: &Database) -> Result<(Schema, WhereMap)> {
    match q {
        Query::Scan(rel) => {
            let r = db.require(rel)?;
            let attrs = r.schema().attrs().to_vec();
            let map = r
                .tuples()
                .iter()
                .enumerate()
                .map(|(row, t)| {
                    let tid = Tid {
                        rel: r.name().clone(),
                        row,
                    };
                    let sets: LocSets = attrs
                        .iter()
                        .map(|a| {
                            [SourceLoc::new(tid.clone(), a.clone())]
                                .into_iter()
                                .collect()
                        })
                        .collect();
                    (t.clone(), sets)
                })
                .collect();
            Ok((r.schema().clone(), map))
        }
        Query::Select { input, pred } => {
            // The selection rule: annotations pass through untouched for
            // surviving tuples. Note the deliberate non-rule discussed in the
            // paper: σ_{A=A'} does NOT copy annotations between A and A'.
            let (schema, map) = where_walk(input, db)?;
            let mut out = WhereMap::new();
            for (t, sets) in map {
                if pred.eval(&schema, &t)? {
                    out.insert(t, sets);
                }
            }
            Ok((schema, out))
        }
        Query::Project { input, attrs } => {
            let (schema, map) = where_walk(input, db)?;
            let out_schema = schema.project(attrs)?;
            let positions = schema.positions_of(attrs)?;
            let mut out = WhereMap::new();
            for (t, sets) in map {
                let key = t.project_positions(&positions);
                let kept: LocSets = positions.iter().map(|&i| sets[i].clone()).collect();
                out.entry(key)
                    .and_modify(|existing| merge_into(existing, &kept))
                    .or_insert(kept);
            }
            Ok((out_schema, out))
        }
        Query::Join { left, right } => {
            let (ls, lmap) = where_walk(left, db)?;
            let (rs, rmap) = where_walk(right, db)?;
            let shared: Vec<Attr> = ls.shared_with(&rs);
            let out_schema = ls.join_with(&rs);
            let l_keys: Vec<usize> = shared
                .iter()
                .map(|a| ls.index_of(a).expect("shared"))
                .collect();
            let r_keys: Vec<usize> = shared
                .iter()
                .map(|a| rs.index_of(a).expect("shared"))
                .collect();
            let r_extra: Vec<usize> = rs
                .attrs()
                .iter()
                .enumerate()
                .filter(|(_, a)| !ls.contains(a))
                .map(|(i, _)| i)
                .collect();
            // For each left position that is a shared attribute, the right
            // position it merges with (the join rule sends annotations from
            // BOTH operands to a shared output attribute).
            let merge_from_right: Vec<Option<usize>> =
                ls.attrs().iter().map(|a| rs.index_of(a)).collect();
            let mut table: HashMap<Vec<Value>, Vec<(&Tuple, &LocSets)>> =
                HashMap::with_capacity(rmap.len());
            for (t, sets) in &rmap {
                let key = r_keys.iter().map(|&i| t.get(i).clone()).collect::<Vec<_>>();
                table.entry(key).or_default().push((t, sets));
            }
            let mut out = WhereMap::new();
            for (lt, lsets) in &lmap {
                let key = l_keys
                    .iter()
                    .map(|&i| lt.get(i).clone())
                    .collect::<Vec<_>>();
                let Some(matches) = table.get(&key) else {
                    continue;
                };
                for (rt, rsets) in matches {
                    let joined = lt.join_concat(rt, &r_extra);
                    let mut sets: LocSets = Vec::with_capacity(out_schema.arity());
                    for (i, from_right) in merge_from_right.iter().enumerate() {
                        let mut s = lsets[i].clone();
                        if let Some(j) = from_right {
                            s.extend(rsets[*j].iter().cloned());
                        }
                        sets.push(s);
                    }
                    for &j in &r_extra {
                        sets.push(rsets[j].clone());
                    }
                    out.entry(joined)
                        .and_modify(|existing| merge_into(existing, &sets))
                        .or_insert(sets);
                }
            }
            Ok((out_schema, out))
        }
        Query::Union { left, right } => {
            let (ls, lmap) = where_walk(left, db)?;
            let (rs, rmap) = where_walk(right, db)?;
            let positions = rs.positions_of(ls.attrs())?;
            let mut out = lmap;
            for (t, sets) in rmap {
                let aligned_tuple = t.project_positions(&positions);
                let aligned_sets: LocSets = positions.iter().map(|&i| sets[i].clone()).collect();
                out.entry(aligned_tuple)
                    .and_modify(|existing| merge_into(existing, &aligned_sets))
                    .or_insert(aligned_sets);
            }
            Ok((ls, out))
        }
        Query::Rename { input, mapping } => {
            // The renaming rule: the annotation follows the attribute to its
            // new name; positionally nothing moves.
            let (schema, map) = where_walk(input, db)?;
            Ok((schema.rename(mapping)?, map))
        }
    }
}

fn expr_walk(q: &Query, db: &Database) -> Result<(Schema, ExprMap)> {
    match q {
        Query::Scan(rel) => {
            let r = db.require(rel)?;
            let map = r
                .tuples()
                .iter()
                .enumerate()
                .map(|(row, t)| {
                    (
                        t.clone(),
                        BoolExpr::Var(Tid {
                            rel: r.name().clone(),
                            row,
                        }),
                    )
                })
                .collect();
            Ok((r.schema().clone(), map))
        }
        Query::Select { input, pred } => {
            let (schema, map) = expr_walk(input, db)?;
            let mut out = ExprMap::new();
            for (t, e) in map {
                if pred.eval(&schema, &t)? {
                    out.insert(t, e);
                }
            }
            Ok((schema, out))
        }
        Query::Project { input, attrs } => {
            let (schema, map) = expr_walk(input, db)?;
            let out_schema = schema.project(attrs)?;
            let positions = schema.positions_of(attrs)?;
            let mut out = ExprMap::new();
            for (t, e) in map {
                let key = t.project_positions(&positions);
                let merged = match out.remove(&key) {
                    Some(existing) => existing.or(e),
                    None => e,
                };
                out.insert(key, merged);
            }
            Ok((out_schema, out))
        }
        Query::Join { left, right } => {
            let (ls, lmap) = expr_walk(left, db)?;
            let (rs, rmap) = expr_walk(right, db)?;
            let shared: Vec<Attr> = ls.shared_with(&rs);
            let out_schema = ls.join_with(&rs);
            let l_keys: Vec<usize> = shared
                .iter()
                .map(|a| ls.index_of(a).expect("shared"))
                .collect();
            let r_keys: Vec<usize> = shared
                .iter()
                .map(|a| rs.index_of(a).expect("shared"))
                .collect();
            let r_extra: Vec<usize> = rs
                .attrs()
                .iter()
                .enumerate()
                .filter(|(_, a)| !ls.contains(a))
                .map(|(i, _)| i)
                .collect();
            let mut table: HashMap<Vec<Value>, Vec<(&Tuple, &BoolExpr)>> =
                HashMap::with_capacity(rmap.len());
            for (t, e) in &rmap {
                let key = r_keys.iter().map(|&i| t.get(i).clone()).collect::<Vec<_>>();
                table.entry(key).or_default().push((t, e));
            }
            let mut out = ExprMap::new();
            for (lt, le) in &lmap {
                let key = l_keys
                    .iter()
                    .map(|&i| lt.get(i).clone())
                    .collect::<Vec<_>>();
                let Some(matches) = table.get(&key) else {
                    continue;
                };
                for (rt, re) in matches {
                    let joined = lt.join_concat(rt, &r_extra);
                    let product = le.clone().and((*re).clone());
                    let merged = match out.remove(&joined) {
                        Some(existing) => existing.or(product),
                        None => product,
                    };
                    out.insert(joined, merged);
                }
            }
            Ok((out_schema, out))
        }
        Query::Union { left, right } => {
            let (ls, lmap) = expr_walk(left, db)?;
            let (rs, rmap) = expr_walk(right, db)?;
            let positions = rs.positions_of(ls.attrs())?;
            let mut out = lmap;
            for (t, e) in rmap {
                let aligned = t.project_positions(&positions);
                let merged = match out.remove(&aligned) {
                    Some(existing) => existing.or(e),
                    None => e,
                };
                out.insert(aligned, merged);
            }
            Ok((ls, out))
        }
        Query::Rename { input, mapping } => {
            let (schema, map) = expr_walk(input, db)?;
            Ok((schema.rename(mapping)?, map))
        }
    }
}
