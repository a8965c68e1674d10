//! Why-provenance as **positive Boolean expressions** over tuple variables.
//!
//! Every output tuple's derivation can be written as a monotone Boolean
//! formula whose variables are source tuples: joins multiply (AND), unions
//! and projections add (OR). The minimal witnesses of the paper are exactly
//! the prime implicants of this formula, and `t ∈ Q(S \ T)` iff the formula
//! is true under "deleted = false".
//!
//! The paper's conclusion calls for "other models of propagating
//! annotations"; this module is the Boolean/`PosBool` instance of what later
//! became the provenance-semiring framework, and doubles as an independent
//! cross-check of the witness machinery: DNF + absorption must equal the
//! minimal witness basis (tested).

use crate::witness::{minimize, Witness};
use dap_relalg::{Database, Query, Result, Schema, Tid, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A monotone (negation-free) Boolean expression over source tuples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BoolExpr {
    /// The constant `false` (no derivation).
    False,
    /// The constant `true` (derivable from nothing — does not occur for
    /// SPJRU queries but completes the algebra).
    True,
    /// A source tuple variable.
    Var(Tid),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
}

impl BoolExpr {
    /// Conjunction with unit/absorbing-element simplification.
    pub fn and(self, other: BoolExpr) -> BoolExpr {
        match (self, other) {
            (BoolExpr::False, _) | (_, BoolExpr::False) => BoolExpr::False,
            (BoolExpr::True, e) | (e, BoolExpr::True) => e,
            (a, b) => BoolExpr::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction with unit/absorbing-element simplification.
    pub fn or(self, other: BoolExpr) -> BoolExpr {
        match (self, other) {
            (BoolExpr::True, _) | (_, BoolExpr::True) => BoolExpr::True,
            (BoolExpr::False, e) | (e, BoolExpr::False) => e,
            (a, b) => BoolExpr::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Evaluate under the valuation "tuple alive iff not in `deleted`".
    pub fn eval_deleted(&self, deleted: &BTreeSet<Tid>) -> bool {
        match self {
            BoolExpr::False => false,
            BoolExpr::True => true,
            BoolExpr::Var(tid) => !deleted.contains(tid),
            BoolExpr::And(a, b) => a.eval_deleted(deleted) && b.eval_deleted(deleted),
            BoolExpr::Or(a, b) => a.eval_deleted(deleted) || b.eval_deleted(deleted),
        }
    }

    /// Expand to DNF and apply absorption: the result is the set of prime
    /// implicants — which for provenance expressions is the minimal witness
    /// basis. Worst-case exponential, like witnesses themselves.
    pub fn prime_implicants(&self) -> Vec<Witness> {
        fn dnf(e: &BoolExpr) -> Vec<Witness> {
            match e {
                BoolExpr::False => vec![],
                BoolExpr::True => vec![BTreeSet::new()],
                BoolExpr::Var(tid) => vec![[tid.clone()].into_iter().collect()],
                BoolExpr::Or(a, b) => {
                    let mut out = dnf(a);
                    out.extend(dnf(b));
                    out
                }
                BoolExpr::And(a, b) => {
                    let left = dnf(a);
                    let right = dnf(b);
                    let mut out = Vec::with_capacity(left.len() * right.len());
                    for l in &left {
                        for r in &right {
                            out.push(l.iter().cloned().chain(r.iter().cloned()).collect());
                        }
                    }
                    out
                }
            }
        }
        minimize(dnf(self))
    }

    /// The variables mentioned.
    pub fn variables(&self) -> BTreeSet<Tid> {
        let mut out = BTreeSet::new();
        fn walk(e: &BoolExpr, out: &mut BTreeSet<Tid>) {
            match e {
                BoolExpr::False | BoolExpr::True => {}
                BoolExpr::Var(tid) => {
                    out.insert(tid.clone());
                }
                BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
            }
        }
        walk(self, &mut out);
        out
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::False => write!(f, "0"),
            BoolExpr::True => write!(f, "1"),
            BoolExpr::Var(tid) => write!(f, "{tid}"),
            BoolExpr::And(a, b) => {
                let wrap = |e: &BoolExpr, f: &mut fmt::Formatter<'_>| -> fmt::Result {
                    if matches!(e, BoolExpr::Or(..)) {
                        write!(f, "({e})")
                    } else {
                        write!(f, "{e}")
                    }
                };
                wrap(a, f)?;
                write!(f, " · ")?;
                wrap(b, f)
            }
            BoolExpr::Or(a, b) => write!(f, "{a} + {b}"),
        }
    }
}

/// The provenance expressions of every output tuple of `q` on `db`.
#[derive(Clone, Debug)]
pub struct ProvenanceExprs {
    /// The view schema.
    pub schema: Schema,
    map: BTreeMap<Tuple, BoolExpr>,
}

impl ProvenanceExprs {
    /// The expression of `t`, if it is in the view.
    pub fn expr_of(&self, t: &Tuple) -> Option<&BoolExpr> {
        self.map.get(t)
    }

    /// Iterate over `(tuple, expression)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &BoolExpr)> {
        self.map.iter()
    }

    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Compute the provenance expression of every output tuple — a structural
/// analogue of [`crate::why_provenance`] that keeps the formula instead of
/// flattening to witnesses. Runs on the generic annotated evaluator with the
/// [`crate::engine::ExprAnn`] instance.
pub fn provenance_exprs(q: &Query, db: &Database) -> Result<ProvenanceExprs> {
    let (schema, tuples, annots) =
        dap_relalg::eval_annotated::<crate::engine::ExprAnn>(q, db)?.into_parts();
    let map = tuples
        .into_iter()
        .zip(annots.into_iter().map(|a| a.0))
        .collect();
    Ok(ProvenanceExprs { schema, map })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::why::why_provenance;
    use dap_relalg::{eval, parse_database, parse_query, tuple};

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
    fn algebraic_simplification() {
        let v = BoolExpr::Var(Tid::new("R", 0));
        assert_eq!(BoolExpr::False.clone().and(v.clone()), BoolExpr::False);
        assert_eq!(BoolExpr::True.and(v.clone()), v);
        assert_eq!(BoolExpr::False.or(v.clone()), v);
        assert_eq!(BoolExpr::True.or(v.clone()), BoolExpr::True);
    }

    #[test]
    fn prime_implicants_equal_minimal_witnesses() {
        let (q, db) = fixture();
        let exprs = provenance_exprs(&q, &db).unwrap();
        let why = why_provenance(&q, &db).unwrap();
        assert_eq!(exprs.len(), why.len());
        for (t, e) in exprs.iter() {
            let implicants = e.prime_implicants();
            let witnesses = why.witnesses_of(t).unwrap();
            assert_eq!(implicants.as_slice(), witnesses, "mismatch for {t}");
        }
    }

    #[test]
    fn expression_eval_matches_reevaluation() {
        let (q, db) = fixture();
        let exprs = provenance_exprs(&q, &db).unwrap();
        let tids: Vec<Tid> = db.all_tids().collect();
        // All single and double deletions.
        let mut deletions: Vec<BTreeSet<Tid>> = Vec::new();
        for i in 0..tids.len() {
            deletions.push([tids[i].clone()].into_iter().collect());
            for j in (i + 1)..tids.len() {
                deletions.push([tids[i].clone(), tids[j].clone()].into_iter().collect());
            }
        }
        for deleted in deletions {
            let after = eval(&q, &db.without(&deleted)).unwrap();
            for (t, e) in exprs.iter() {
                assert_eq!(
                    e.eval_deleted(&deleted),
                    after.contains(t),
                    "expr {e} for {t} under deletion {deleted:?}"
                );
            }
        }
    }

    #[test]
    fn display_reads_like_a_polynomial() {
        let (q, db) = fixture();
        let exprs = provenance_exprs(&q, &db).unwrap();
        let e = exprs.expr_of(&tuple(["bob", "report"])).unwrap();
        let text = e.to_string();
        // Two derivations, each a product of two tuples.
        assert!(text.contains(" + "), "got {text}");
        assert!(text.contains(" · "), "got {text}");
    }

    #[test]
    fn variables_are_the_lineage() {
        let (q, db) = fixture();
        let exprs = provenance_exprs(&q, &db).unwrap();
        let e = exprs.expr_of(&tuple(["bob", "report"])).unwrap();
        assert_eq!(e.variables().len(), 4);
    }

    #[test]
    fn union_and_select_shapes() {
        let db = parse_database(
            "relation R(A) { (v) }
             relation S(A) { (v), (w) }",
        )
        .unwrap();
        let q = parse_query("union(scan R, scan S)").unwrap();
        let exprs = provenance_exprs(&q, &db).unwrap();
        // (v) = R#0 + S#0 — an OR of two variables.
        let e = exprs.expr_of(&tuple(["v"])).unwrap();
        assert!(matches!(e, BoolExpr::Or(..)));
        // (w) = S#1 — a bare variable.
        let e = exprs.expr_of(&tuple(["w"])).unwrap();
        assert!(matches!(e, BoolExpr::Var(_)));
    }
}
