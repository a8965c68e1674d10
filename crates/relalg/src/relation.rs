//! Set-semantics relation instances.
//!
//! A relation is a schema plus a *sorted, deduplicated* vector of tuples.
//! Sorting gives deterministic iteration (tests, figures, benches) and a
//! stable row index used as tuple identity by the provenance layer.

use crate::error::{RelalgError, Result};
use crate::name::RelName;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A named relation instance with set semantics.
#[derive(Clone)]
pub struct Relation {
    name: RelName,
    schema: Schema,
    /// Sorted and deduplicated; the index of a tuple in this vector is its
    /// stable row id within the instance.
    tuples: Vec<Tuple>,
    /// Lazily materialized `Arc` handles over `tuples`, row-aligned. Scan
    /// builds share these instead of deep-cloning every base tuple per
    /// build — the second and every later registry over the same instance
    /// (deletion contexts, one-shot evaluations, benches) bumps refcounts
    /// only; a [`crate::Database`] holds each relation behind one `Arc`,
    /// so its clones share this cache too. Not part of the relation's
    /// value (see the manual [`PartialEq`]).
    shared: OnceLock<Vec<Arc<Tuple>>>,
}

/// Equality is over name, schema and tuples; the lazily-filled shared
/// handle cache is a materialization detail, never part of the value.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.name == other.name && self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl Relation {
    /// Build a relation, sorting and deduplicating `tuples`. Errors if any
    /// tuple's arity disagrees with the schema.
    pub fn new<N, I>(name: N, schema: Schema, tuples: I) -> Result<Relation>
    where
        N: Into<RelName>,
        I: IntoIterator<Item = Tuple>,
    {
        let name = name.into();
        let set: BTreeSet<Tuple> = tuples.into_iter().collect();
        for t in &set {
            if t.arity() != schema.arity() {
                return Err(RelalgError::ArityMismatch {
                    rel: name.clone(),
                    expected: schema.arity(),
                    got: t.arity(),
                });
            }
        }
        Ok(Relation {
            name,
            schema,
            tuples: set.into_iter().collect(),
            shared: OnceLock::new(),
        })
    }

    /// An empty relation over `schema`.
    pub fn empty(name: impl Into<RelName>, schema: Schema) -> Relation {
        Relation {
            name: name.into(),
            schema,
            tuples: Vec::new(),
            shared: OnceLock::new(),
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &RelName {
        &self.name
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Tuples in sorted order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Row-aligned shared handles over [`Relation::tuples`], materialized
    /// once per instance and reused by every plan built over it.
    pub fn shared_tuples(&self) -> &[Arc<Tuple>] {
        self.shared
            .get_or_init(|| self.tuples.iter().map(|t| Arc::new(t.clone())).collect())
    }

    /// The tuple at stable row index `row`.
    pub fn tuple_at(&self, row: usize) -> Option<&Tuple> {
        self.tuples.get(row)
    }

    /// The stable row index of `t`, if present (binary search).
    pub fn row_of(&self, t: &Tuple) -> Option<usize> {
        self.tuples.binary_search(t).ok()
    }

    /// Whether the relation contains `t`.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.row_of(t).is_some()
    }

    /// A copy of this relation without the rows in `rows`. Row indices refer
    /// to *this* instance; the result has its own (re-packed) indices.
    pub fn without_rows(&self, rows: &BTreeSet<usize>) -> Relation {
        let tuples: Vec<Tuple> = self
            .tuples
            .iter()
            .enumerate()
            .filter(|(i, _)| !rows.contains(i))
            .map(|(_, t)| t.clone())
            .collect();
        Relation {
            name: self.name.clone(),
            schema: self.schema.clone(),
            tuples,
            shared: OnceLock::new(),
        }
    }

    /// A copy of this relation with `extra` tuples inserted.
    pub fn with_tuples<I: IntoIterator<Item = Tuple>>(&self, extra: I) -> Result<Relation> {
        Relation::new(
            self.name.clone(),
            self.schema.clone(),
            self.tuples.iter().cloned().chain(extra),
        )
    }

    /// Render as an aligned text table in the style of the paper's figures:
    ///
    /// ```text
    /// R1
    /// A  B
    /// a  x1
    /// a  x2
    /// ```
    pub fn to_table_string(&self) -> String {
        let headers: Vec<String> = self.schema.attrs().iter().map(|a| a.to_string()).collect();
        let rows: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(self.name.as_str());
        out.push('\n');
        let push_row = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', w - cell.len()));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        push_row(&headers, &mut out);
        for row in &rows {
            push_row(row, &mut out);
        }
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table_string())
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Relation({} {} with {} tuples)",
            self.name,
            self.schema,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema;
    use crate::tuple::tuple;

    fn r1() -> Relation {
        Relation::new(
            "R1",
            schema(["A", "B"]),
            vec![tuple(["a", "x2"]), tuple(["a", "x1"]), tuple(["a", "x1"])],
        )
        .unwrap()
    }

    #[test]
    fn dedups_and_sorts() {
        let r = r1();
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples()[0], tuple(["a", "x1"]));
        assert_eq!(r.tuples()[1], tuple(["a", "x2"]));
    }

    #[test]
    fn arity_checked() {
        let err = Relation::new("R", schema(["A"]), vec![tuple(["a", "b"])]);
        assert!(matches!(err, Err(RelalgError::ArityMismatch { .. })));
    }

    #[test]
    fn stable_rows_and_lookup() {
        let r = r1();
        assert_eq!(r.row_of(&tuple(["a", "x2"])), Some(1));
        assert_eq!(r.tuple_at(1), Some(&tuple(["a", "x2"])));
        assert!(r.contains(&tuple(["a", "x1"])));
        assert!(!r.contains(&tuple(["b", "x1"])));
        assert_eq!(r.row_of(&tuple(["zz", "zz"])), None);
    }

    #[test]
    fn without_rows_removes_by_index() {
        let r = r1();
        let out = r.without_rows(&BTreeSet::from([0]));
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple(["a", "x2"])));
        // original untouched
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn with_tuples_adds_and_dedups() {
        let r = r1();
        let out = r
            .with_tuples(vec![tuple(["b", "y"]), tuple(["a", "x1"])])
            .unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn table_rendering_matches_paper_style() {
        let r = r1();
        let expected = "R1\nA  B\na  x1\na  x2\n";
        assert_eq!(r.to_table_string(), expected);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty("E", schema(["X"]));
        assert!(r.is_empty());
        assert_eq!(r.to_table_string(), "E\nX\n");
    }
}
