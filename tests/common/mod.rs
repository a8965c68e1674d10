//! Shared generators for the integration/property tests: random databases
//! over a small fixed catalog, and a proptest strategy producing
//! *type-correct* SPJRU queries together with their output schemas — plus
//! the fresh-evaluation oracle the maintained-view suites check against.
//!
//! Each test target compiles its own copy of this module, so items only
//! some targets use carry `#[allow(dead_code)]`.

use dap::prelude::*;
use dap::provenance::{ExprAnn, LineageAnn, LocationsAnn, WitnessesAnn};
use dap::relalg::Unit;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

/// The catalog every generated query runs against:
/// `R(A,B)`, `S(B,C)`, `T(A,B)`.
pub fn catalog_relations() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("R", vec!["A", "B"]),
        ("S", vec!["B", "C"]),
        ("T", vec!["A", "B"]),
    ]
}

/// A value drawn from a tiny alphabet so joins collide often.
pub fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..4i64).prop_map(Value::int),
        prop_oneof![Just("v0"), Just("v1"), Just("v2")].prop_map(Value::str),
    ]
}

/// A random database instance over [`catalog_relations`].
pub fn small_database() -> impl Strategy<Value = Database> {
    fn rel(name: &'static str, attrs: Vec<&'static str>) -> BoxedStrategy<Relation> {
        let arity = attrs.len();
        proptest::collection::vec(proptest::collection::vec(small_value(), arity), 0..6)
            .prop_map(move |rows| {
                Relation::new(
                    name,
                    schema(attrs.clone()),
                    rows.into_iter().map(Tuple::new),
                )
                .expect("consistent arity")
            })
            .boxed()
    }
    (
        rel("R", vec!["A", "B"]),
        rel("S", vec!["B", "C"]),
        rel("T", vec!["A", "B"]),
    )
        .prop_map(|(r, s, t)| Database::from_relations(vec![r, s, t]).expect("distinct names"))
}

/// A random predicate over `sch` (attr = const, attr = attr, conjunctions).
fn pred_for(sch: &Schema) -> BoxedStrategy<Pred> {
    let attrs: Vec<Attr> = sch.attrs().to_vec();
    let attr = proptest::sample::select(attrs.clone());
    let attr2 = proptest::sample::select(attrs);
    let leaf = prop_oneof![
        Just(Pred::True),
        (attr.clone(), small_value()).prop_map(|(a, v)| Pred::attr_eq_const(a.as_str(), v)),
        (attr, attr2).prop_map(|(a, b)| Pred::attr_eq_attr(a.as_str(), b.as_str())),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Pred::negate),
        ]
    })
    .boxed()
}

/// Strategy for `(query, output schema)` pairs, guaranteed type-correct
/// against [`catalog_relations`].
pub fn typed_query() -> BoxedStrategy<(Query, Schema)> {
    let leaf = prop_oneof![
        Just((Query::scan("R"), schema(["A", "B"]))),
        Just((Query::scan("S"), schema(["B", "C"]))),
        Just((Query::scan("T"), schema(["A", "B"]))),
    ]
    .boxed();

    leaf.prop_recursive(3, 12, 3, |inner| {
        let select = inner.clone().prop_flat_map(|(q, s)| {
            pred_for(&s).prop_map(move |p| (q.clone().select(p), s.clone()))
        });
        let project = (
            inner.clone(),
            proptest::collection::vec(any::<prop::sample::Index>(), 1..3),
        )
            .prop_map(|((q, s), picks)| {
                let mut attrs: Vec<Attr> = Vec::new();
                for pick in picks {
                    let a = s.attrs()[pick.index(s.arity())].clone();
                    if !attrs.contains(&a) {
                        attrs.push(a);
                    }
                }
                let out = s.project(&attrs).expect("subset of schema");
                (q.project(attrs.iter().map(Attr::as_str)), out)
            });
        let join = (inner.clone(), inner.clone()).prop_map(|((q1, s1), (q2, s2))| {
            let out = s1.join_with(&s2);
            (q1.join(q2), out)
        });
        // Union: right branch is a scan projected+renamed to the left's
        // schema (keeps compatibility by construction). Falls back to the
        // left query alone when the left schema is wider than any relation.
        let union = (inner.clone(), 0..3usize, any::<prop::sample::Index>()).prop_map(
            |((q1, s1), rel_pick, attr_pick)| {
                let rels = catalog_relations();
                let (rname, rattrs) = &rels[rel_pick % rels.len()];
                if s1.arity() > rattrs.len() {
                    return (q1, s1);
                }
                // Choose |s1| distinct attrs of the relation, in order
                // starting at a random offset.
                let k = s1.arity();
                let start = attr_pick.index(rattrs.len());
                let chosen: Vec<&str> =
                    (0..k).map(|i| rattrs[(start + i) % rattrs.len()]).collect();
                let mapping: Vec<(String, String)> = chosen
                    .iter()
                    .zip(s1.attrs())
                    .filter(|(c, a)| **c != a.as_str())
                    .map(|(c, a)| (c.to_string(), a.as_str().to_string()))
                    .collect();
                // Two-phase rename through fresh names avoids collisions
                // (e.g. mapping {A→B, B→A} is fine, but {B→A} with A kept
                // is not); go through temp names.
                let tmp_map: Vec<(String, String)> = mapping
                    .iter()
                    .enumerate()
                    .map(|(i, (c, _))| (c.clone(), format!("Utmp{i}")))
                    .collect();
                let final_map: Vec<(String, String)> = mapping
                    .iter()
                    .enumerate()
                    .map(|(i, (_, a))| (format!("Utmp{i}"), a.clone()))
                    .collect();
                let mut q2 = Query::scan(*rname).project(chosen.clone());
                if !mapping.is_empty() {
                    q2 = q2.rename(tmp_map).rename(final_map);
                }
                (q1.union(q2), s1)
            },
        );
        // Rename one attribute to a fresh name Z<n>.
        let rename = (inner, 0..5usize).prop_map(|((q, s), z)| {
            let target = format!("Z{z}");
            if s.contains(&Attr::new(&target)) || s.is_empty() {
                return (q, s);
            }
            let old = s.attrs()[z % s.arity()].clone();
            let out = s
                .rename(&[(old.clone(), Attr::new(&target))])
                .expect("fresh target");
            (q.rename([(old.as_str().to_string(), target)]), out)
        });
        prop_oneof![select, project, join, union, rename].boxed()
    })
    .boxed()
}

/// Every `Tid` of `db`, for subset-deletion properties.
#[allow(dead_code)] // each test target compiles its own copy of this module
pub fn tid_subset(db: &Database) -> Vec<Tid> {
    db.all_tids().collect()
}

/// Turn proptest index picks into concrete deletion batches over `db`.
#[allow(dead_code)]
pub fn pick_batches(db: &Database, picks: &[Vec<prop::sample::Index>]) -> Vec<Vec<Tid>> {
    let pool: Vec<Tid> = db.all_tids().collect();
    picks
        .iter()
        .map(|batch| {
            batch
                .iter()
                .filter(|_| !pool.is_empty())
                .map(|i| pool[i.index(pool.len())].clone())
                .collect()
        })
        .collect()
}

/// The original-tid → fresh-tid renumbering left by `db.without(deleted)`:
/// row `r` of a relation becomes `r - |deleted rows below r|`. Monotone per
/// relation, so it preserves every ordering the carriers rely on.
#[allow(dead_code)]
pub fn remap_table(db: &Database, deleted: &BTreeSet<Tid>) -> BTreeMap<Tid, Tid> {
    let mut map = BTreeMap::new();
    for rel in db.relations() {
        let mut fresh = 0usize;
        for row in 0..rel.len() {
            let tid = Tid::new(rel.name().clone(), row);
            if deleted.contains(&tid) {
                continue;
            }
            map.insert(tid, Tid::new(rel.name().clone(), fresh));
            fresh += 1;
        }
    }
    map
}

#[allow(dead_code)]
pub fn remap_tid(map: &BTreeMap<Tid, Tid>, tid: &Tid) -> Tid {
    map.get(tid).cloned().unwrap_or_else(|| tid.clone())
}

#[allow(dead_code)]
pub fn remap_witnesses(map: &BTreeMap<Tid, Tid>, ws: &[Witness]) -> Vec<Witness> {
    ws.iter()
        .map(|w| w.iter().map(|tid| remap_tid(map, tid)).collect())
        .collect()
}

/// Canonical, renumbering-translated form of each annotation carrier. All
/// carriers normalize to canonical forms except `ExprAnn`, whose
/// OR-operand order depends on derivation order; it is compared via its
/// canonical DNF (`prime_implicants`, which equals the minimal witness
/// basis).
#[allow(dead_code)]
pub trait CanonAnn: Annotation + Debug {
    type Out: PartialEq + Debug;
    fn canon(&self, map: &BTreeMap<Tid, Tid>) -> Self::Out;
}

impl CanonAnn for Unit {
    type Out = ();
    fn canon(&self, _map: &BTreeMap<Tid, Tid>) -> Self::Out {}
}

impl CanonAnn for WitnessesAnn {
    type Out = Vec<Witness>;
    fn canon(&self, map: &BTreeMap<Tid, Tid>) -> Self::Out {
        remap_witnesses(map, &self.0)
    }
}

impl CanonAnn for LocationsAnn {
    type Out = Vec<BTreeSet<SourceLoc>>;
    fn canon(&self, map: &BTreeMap<Tid, Tid>) -> Self::Out {
        self.0
            .iter()
            .map(|cell| {
                cell.iter()
                    .map(|loc| SourceLoc::new(remap_tid(map, &loc.tid), loc.attr.clone()))
                    .collect()
            })
            .collect()
    }
}

impl CanonAnn for LineageAnn {
    type Out = BTreeSet<Tid>;
    fn canon(&self, map: &BTreeMap<Tid, Tid>) -> Self::Out {
        self.0.iter().map(|tid| remap_tid(map, tid)).collect()
    }
}

impl CanonAnn for ExprAnn {
    type Out = Vec<Witness>;
    fn canon(&self, map: &BTreeMap<Tid, Tid>) -> Self::Out {
        remap_witnesses(map, &self.0.prime_implicants())
    }
}

/// A registered query's current view, cloned out in sorted order.
#[allow(dead_code)]
pub fn view_of<A: Annotation>(reg: &PlanRegistry<A>, id: QueryId) -> Vec<(Tuple, A)> {
    reg.iter_query(id)
        .map(|(t, a)| (t.clone(), a.clone()))
        .collect()
}

/// The maintained-view oracle: `view` (a registry's view after the
/// deletions in `deleted`, annotations in the original tid numbering)
/// equals a fresh `eval_annotated` of `q` over `S ∖ deleted`, tuple for
/// tuple, with annotations compared through the monotone renumbering.
#[allow(dead_code)]
pub fn check_matches_fresh<A: CanonAnn>(
    view: &[(Tuple, A)],
    q: &Query,
    db: &Database,
    deleted: &BTreeSet<Tid>,
) -> Result<(), TestCaseError> {
    let fresh = eval_annotated::<A>(q, &db.without(deleted)).expect("evaluates");
    let maintained: Vec<&Tuple> = view.iter().map(|(t, _)| t).collect();
    let fresh_tuples: Vec<&Tuple> = fresh.tuples().iter().collect();
    prop_assert_eq!(maintained, fresh_tuples, "tuples diverged at {:?}", deleted);
    let map = remap_table(db, deleted);
    let identity = BTreeMap::new();
    for ((t, a), fresh_a) in view.iter().zip(fresh.annotations()) {
        prop_assert_eq!(
            a.canon(&map),
            fresh_a.canon(&identity),
            "annotation diverged for {} at {:?}",
            t,
            deleted
        );
    }
    Ok(())
}

/// A `ViewDelta` is exactly the difference between the views it separates:
/// `removed` lists the tuples that left, `changed` the survivors whose
/// annotation is no longer equal.
#[allow(dead_code)]
pub fn check_delta<A: Annotation>(
    before: &[(Tuple, A)],
    after: &[(Tuple, A)],
    delta: &ViewDelta,
) -> Result<(), TestCaseError> {
    let now: BTreeMap<&Tuple, &A> = after.iter().map(|(t, a)| (t, a)).collect();
    let removed: Vec<Tuple> = before
        .iter()
        .filter(|(t, _)| !now.contains_key(t))
        .map(|(t, _)| t.clone())
        .collect();
    let changed: Vec<Tuple> = before
        .iter()
        .filter(|(t, a)| now.get(t).is_some_and(|b| *b != a))
        .map(|(t, _)| t.clone())
        .collect();
    prop_assert_eq!(&delta.removed, &removed, "removed ≠ view diff");
    prop_assert_eq!(&delta.changed, &changed, "changed ≠ annotation diff");
    Ok(())
}
