//! The generic **annotated evaluator** — one tree walk for every provenance
//! semantics.
//!
//! The paper's two problems (deletion propagation, §2, and annotation
//! placement, §3) are both *provenance propagation* through the same SPJRU
//! operator tree: joins combine the derivations of their operands (⊗), and
//! the set-semantics merges at projections and unions accumulate alternative
//! derivations (⊕). Plain evaluation, lineage, why-provenance,
//! where-provenance and Boolean lineage expressions differ only in the
//! carrier of that (⊗, ⊕) structure, so this module implements the walk
//! **once**, parameterized over an [`Annotation`] trait, and the
//! `dap-provenance` crate instantiates it per semantics.
//!
//! | instance (in `dap-provenance`) | carrier | ⊗ (join) | ⊕ (merge) | paper |
//! |---|---|---|---|---|
//! | `Unit` (here) | `()` | — | — | plain `Q(S)` |
//! | lineage | `BTreeSet<Tid>` | ∪ | ∪ | §1 \[14, 15\] |
//! | why-provenance | minimal witness sets | pairwise ∪ | concat + minimize | §2, footnote 4 |
//! | where-provenance | per-attribute location sets | positional ∪ | positional ∪ | §3 rules |
//! | Boolean lineage | positive Boolean exprs | ∧ | ∨ | §2.2 / conclusion |
//!
//! ## Performance model
//!
//! The legacy per-semantics walks keyed every intermediate on
//! `BTreeMap<Tuple, A>`: each insert/lookup cloned tuples and compared whole
//! value vectors, `O(log n)` times per operation. The engine instead interns
//! each operator's output tuples into **dense indices** (one hash lookup per
//! produced tuple) and keeps annotations in a flat `Vec<A>`, so ⊕-merges
//! combine on indices. Join probe keys are borrowed `&Value` slices — no
//! value clones on the hash path. The result is sorted once, at the root.
//!
//! The walk itself is the maintained-view engine's build pass:
//! [`eval_annotated`] registers `Q` in a one-query
//! [`crate::registry::PlanRegistry`] (whose per-operator kernels live in
//! [`crate::plan`]) and consumes the root. Callers that will re-ask the
//! same `(Q, S)` after source deletions should keep the registry instead —
//! its `delete_sources` maintains this module's [`Annotated`] view
//! incrementally. [`crate::eval::eval`] stays an independent tree walk:
//! it is the reference the engine is differentially tested against.

use crate::database::{Database, Tid};
use crate::error::Result;
use crate::query::Query;
use crate::registry::PlanRegistry;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// Positional layout of a natural join, handed to [`Annotation::join`] so
/// per-attribute annotations (where-provenance, marks) can route themselves.
/// Tuple-level annotations (witnesses, expressions) ignore it.
#[derive(Clone, Debug)]
pub struct JoinLayout {
    /// Arity of the left operand (output positions `0..left_arity` come from
    /// the left tuple).
    pub left_arity: usize,
    /// For each left position, the right position holding the same (shared)
    /// attribute, if any — the join rule sends annotations from **both**
    /// operands to a shared output attribute.
    pub merge_from_right: Vec<Option<usize>>,
    /// Right positions appended after the left attributes (the non-shared
    /// suffix), in output order.
    pub right_extra: Vec<usize>,
}

impl JoinLayout {
    /// Arity of the join output.
    pub fn out_arity(&self) -> usize {
        self.left_arity + self.right_extra.len()
    }
}

/// A provenance semiring-style annotation carried through the operator tree.
///
/// Laws the engine relies on (all five shipped instances satisfy them):
///
/// * `merge` is associative and commutative up to [`Annotation::normalize`]
///   (the engine may ⊕-merge duplicates in any grouping);
/// * `join` distributes over `merge` in the usual semiring sense;
/// * `project` composes: reordering twice equals reordering once by the
///   composed position map.
///
/// The `PartialEq` bound is what lets [`crate::registry::PlanRegistry`]
/// stop a deletion's ripple early: a recomputed bucket annotation that
/// compares equal to the old one is not propagated further. For that test
/// to be sharp (never for correctness), [`Annotation::normalize`] should
/// produce a canonical form — all five shipped instances do.
///
/// The `Send + Sync` bounds let the registry's operator builds shard
/// scans, join probes and ⊕-bucket normalization across a
/// [`crate::par::ParPool`]; every shipped carrier is plain owned data, so
/// the bounds are satisfied automatically.
pub trait Annotation: Clone + PartialEq + Send + Sync {
    /// The annotation of base tuple `tid`, scanned from a relation with
    /// `schema`. Per-attribute instances seed one cell per attribute.
    fn from_scan(tid: Tid, schema: &Schema) -> Self;

    /// ⊗ — combine the annotations of two joined tuples. `layout` describes
    /// how input positions map to output positions.
    fn join(left: &Self, right: &Self, layout: &JoinLayout) -> Self;

    /// Restrict/reorder to `positions` of the input (projection, and union
    /// right-branch alignment). Tuple-level instances return `self` cloned.
    fn project(&self, positions: &[usize]) -> Self;

    /// ⊕ — absorb the annotation of a duplicate derivation of the same
    /// output tuple.
    fn merge(&mut self, other: Self);

    /// Post-merge canonicalization, run once per operator on every output
    /// annotation (e.g. witness minimization). Defaults to a no-op.
    fn normalize(&mut self) {}
}

/// The unit annotation: carries nothing, so `eval_annotated::<Unit>` *is*
/// plain set-semantics evaluation (cross-checked against
/// [`crate::eval::eval`] by the differential property tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Unit;

impl Annotation for Unit {
    fn from_scan(_tid: Tid, _schema: &Schema) -> Unit {
        Unit
    }
    fn join(_left: &Unit, _right: &Unit, _layout: &JoinLayout) -> Unit {
        Unit
    }
    fn project(&self, _positions: &[usize]) -> Unit {
        Unit
    }
    fn merge(&mut self, _other: Unit) {}
}

/// A materialized annotated view: sorted output tuples with one annotation
/// each.
#[derive(Clone, Debug)]
pub struct Annotated<A> {
    /// The view's schema.
    pub schema: Schema,
    tuples: Vec<Tuple>,
    annots: Vec<A>,
}

impl<A> Annotated<A> {
    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The output tuples, sorted ascending.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The annotations, parallel to [`Annotated::tuples`].
    pub fn annotations(&self) -> &[A] {
        &self.annots
    }

    /// The annotation of `t`, if `t` is in the view (binary search).
    pub fn annotation_of(&self, t: &Tuple) -> Option<&A> {
        self.tuples
            .binary_search(t)
            .ok()
            .map(|idx| &self.annots[idx])
    }

    /// Iterate over `(tuple, annotation)` pairs in tuple order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &A)> {
        self.tuples.iter().zip(self.annots.iter())
    }

    /// Decompose into `(schema, tuples, annotations)` (tuples sorted, the
    /// two vectors parallel).
    pub fn into_parts(self) -> (Schema, Vec<Tuple>, Vec<A>) {
        (self.schema, self.tuples, self.annots)
    }

    /// Assemble from already-sorted parallel vectors (the registry's
    /// output path).
    pub(crate) fn from_sorted_parts(schema: Schema, tuples: Vec<Tuple>, annots: Vec<A>) -> Self {
        debug_assert!(tuples.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        debug_assert_eq!(tuples.len(), annots.len());
        Annotated {
            schema,
            tuples,
            annots,
        }
    }
}

/// Evaluate `q` on `db`, carrying an `A` annotation per output tuple.
/// One operator-tree build regardless of the annotation semantics: this is
/// "register `q` in a one-query [`PlanRegistry`], consume its view" (the
/// registry shares `db`'s relations, it does not copy them). Keep the
/// registry itself when the same `(Q, S)` will be re-asked under source
/// deletions.
pub fn eval_annotated<A: Annotation>(q: &Query, db: &Database) -> Result<Annotated<A>> {
    let mut reg = PlanRegistry::new(db);
    let id = reg.register(q)?;
    Ok(reg.into_annotated(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parser::{parse_database, parse_query};
    use crate::tuple::tuple;

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
    fn unit_instance_matches_plain_eval() {
        let (q, db) = fixture();
        let ann = eval_annotated::<Unit>(&q, &db).unwrap();
        let plain = eval(&q, &db).unwrap();
        assert_eq!(ann.tuples(), plain.tuples.as_slice());
        assert_eq!(ann.schema, plain.schema);
        assert_eq!(ann.annotations().len(), plain.len());
    }

    #[test]
    fn unit_matches_eval_on_every_operator() {
        let (_, db) = fixture();
        for text in [
            "scan UserGroup",
            "select(scan UserGroup, user = 'bob')",
            "project(scan UserGroup, [grp])",
            "join(scan UserGroup, scan GroupFile)",
            "union(scan UserGroup, rename(scan GroupFile, {grp -> user, file -> grp}))",
            "rename(scan UserGroup, {user -> member})",
        ] {
            let q = parse_query(text).unwrap();
            let ann = eval_annotated::<Unit>(&q, &db).unwrap();
            let plain = eval(&q, &db).unwrap();
            assert_eq!(ann.tuples(), plain.tuples.as_slice(), "query {text}");
            assert_eq!(ann.schema, plain.schema, "query {text}");
        }
    }

    #[test]
    fn annotation_lookup_by_tuple() {
        let (q, db) = fixture();
        let ann = eval_annotated::<Unit>(&q, &db).unwrap();
        assert!(ann.annotation_of(&tuple(["bob", "report"])).is_some());
        assert!(ann.annotation_of(&tuple(["zz", "zz"])).is_none());
    }

    #[test]
    fn type_errors_surface_before_walking() {
        let (_, db) = fixture();
        assert!(eval_annotated::<Unit>(&Query::scan("Nope"), &db).is_err());
        let q = Query::scan("UserGroup").project(["nope"]);
        assert!(eval_annotated::<Unit>(&q, &db).is_err());
    }

    #[test]
    fn join_layout_out_arity() {
        let layout = JoinLayout {
            left_arity: 2,
            merge_from_right: vec![None, Some(0)],
            right_extra: vec![1],
        };
        assert_eq!(layout.out_arity(), 3);
    }
}
