//! Databases: named collections of relations, plus the stable tuple identity
//! ([`Tid`]) that the deletion and provenance machinery is built on.

use crate::error::{RelalgError, Result};
use crate::name::RelName;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A stable identifier for one source tuple: relation name plus the row index
/// within that relation's sorted instance. Deleting a set of `Tid`s from a
/// database is the paper's source deletion `S \ T`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid {
    /// The relation the tuple lives in.
    pub rel: RelName,
    /// Stable row index within [`Relation::tuples`].
    pub row: usize,
}

impl Tid {
    /// Build a tuple id.
    pub fn new(rel: impl Into<RelName>, row: usize) -> Tid {
        Tid {
            rel: rel.into(),
            row,
        }
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.rel, self.row)
    }
}

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tid({self})")
    }
}

/// Schema catalog: what the type checker needs to know about a database.
pub type Catalog = BTreeMap<RelName, Schema>;

/// A database instance: a set of named relations.
///
/// Relations are immutable once added and held behind one [`Arc`] each,
/// so cloning a database (a registry or deletion context taking its own
/// handle, a snapshot, [`Database::without`] for the relations it leaves
/// untouched) shares tuple storage instead of copying it.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Database {
    rels: BTreeMap<RelName, Arc<Relation>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Build from an iterator of relations; errors on duplicate names.
    pub fn from_relations<I: IntoIterator<Item = Relation>>(rels: I) -> Result<Database> {
        let mut db = Database::new();
        for r in rels {
            db.add(r)?;
        }
        Ok(db)
    }

    /// Insert a relation; errors if the name is already present.
    pub fn add(&mut self, rel: Relation) -> Result<()> {
        if self.rels.contains_key(rel.name()) {
            return Err(RelalgError::DuplicateAttr {
                attr: rel.name().as_str().into(),
            });
        }
        self.rels.insert(rel.name().clone(), Arc::new(rel));
        Ok(())
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.rels.get(name).map(|r| &**r)
    }

    /// Look up a relation, erroring like the evaluator does.
    pub fn require(&self, name: &RelName) -> Result<&Relation> {
        self.get(name.as_str())
            .ok_or_else(|| RelalgError::UnknownRelation { rel: name.clone() })
    }

    /// All relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.rels.values().map(|r| &**r)
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.rels.len()
    }

    /// Total number of tuples across all relations (the paper's `|S|`).
    pub fn tuple_count(&self) -> usize {
        self.relations().map(Relation::len).sum()
    }

    /// The schema catalog for type checking.
    pub fn catalog(&self) -> Catalog {
        self.rels
            .iter()
            .map(|(n, r)| (n.clone(), r.schema().clone()))
            .collect()
    }

    /// The tuple a [`Tid`] refers to, if it exists.
    pub fn tuple(&self, tid: &Tid) -> Option<&Tuple> {
        self.rels.get(&tid.rel).and_then(|r| r.tuple_at(tid.row))
    }

    /// The `Tid` of `t` within relation `rel`, if present.
    pub fn tid_of(&self, rel: &str, t: &Tuple) -> Option<Tid> {
        let r = self.rels.get(rel)?;
        r.row_of(t).map(|row| Tid {
            rel: r.name().clone(),
            row,
        })
    }

    /// Iterate over every tuple id in the database.
    pub fn all_tids(&self) -> impl Iterator<Item = Tid> + '_ {
        self.rels.values().flat_map(|r| {
            let name = r.name().clone();
            (0..r.len()).map(move |row| Tid {
                rel: name.clone(),
                row,
            })
        })
    }

    /// The sub-instance containing exactly the tuples named by `keep`
    /// (relations keep their schemas, so queries stay well-typed). Used to
    /// check witness candidates: `W` is a witness for `t` iff
    /// `t ∈ Q(restrict(S, W))`.
    pub fn restrict(&self, keep: &BTreeSet<Tid>) -> Database {
        let deletions: BTreeSet<Tid> = self.all_tids().filter(|tid| !keep.contains(tid)).collect();
        self.without(&deletions)
    }

    /// Render the database in the fixture syntax accepted by
    /// [`crate::parse_database`], so `parse_database(&db.to_fixture_string())`
    /// reproduces the instance exactly — including every [`Tid`], because
    /// relation instances are kept sorted and the round trip preserves the
    /// tuple sets. String values are always quoted (SQL-style, `''` for an
    /// embedded quote), so values like `'sp ace'`, `'true'` or `'7'` that a
    /// bare token would mis-lex survive. This is the durability layer's
    /// snapshot encoding for the source instance.
    pub fn to_fixture_string(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for r in self.rels.values() {
            let _ = write!(out, "relation {}(", r.name());
            for (i, a) in r.schema().attrs().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{a}");
            }
            out.push_str(") {");
            for (i, t) in r.tuples().iter().enumerate() {
                out.push_str(if i > 0 { ", (" } else { " (" });
                for (j, v) in t.values().iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    match v {
                        crate::value::Value::Str(s) => {
                            out.push('\'');
                            out.push_str(&s.replace('\'', "''"));
                            out.push('\'');
                        }
                        other => {
                            let _ = write!(out, "{other}");
                        }
                    }
                }
                out.push(')');
            }
            out.push_str(" }\n");
        }
        out
    }

    /// The paper's `S \ T`: a copy of the database with the tuples named by
    /// `deletions` removed. Tids refer to *this* instance; the result
    /// re-packs row indices. Relations without deletions are shared with
    /// `self`, not copied.
    pub fn without(&self, deletions: &BTreeSet<Tid>) -> Database {
        let mut by_rel: BTreeMap<&RelName, BTreeSet<usize>> = BTreeMap::new();
        for tid in deletions {
            by_rel.entry(&tid.rel).or_default().insert(tid.row);
        }
        let rels = self
            .rels
            .iter()
            .map(|(n, r)| {
                let rel = match by_rel.get(n) {
                    Some(rows) => Arc::new(r.without_rows(rows)),
                    None => Arc::clone(r),
                };
                (n.clone(), rel)
            })
            .collect();
        Database { rels }
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rels.values().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            f.write_str(&r.to_table_string())?;
        }
        Ok(())
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Database({} relations, {} tuples)",
            self.relation_count(),
            self.tuple_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema;
    use crate::tuple::tuple;

    fn db() -> Database {
        Database::from_relations(vec![
            Relation::new(
                "R1",
                schema(["A", "B"]),
                vec![tuple(["a", "x1"]), tuple(["a", "x2"])],
            )
            .unwrap(),
            Relation::new("R2", schema(["B", "C"]), vec![tuple(["x1", "c"])]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_and_counts() {
        let db = db();
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.tuple_count(), 3);
        assert!(db.get("R1").is_some());
        assert!(db.get("Rx").is_none());
        assert!(db.require(&"Rx".into()).is_err());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut d = db();
        let dup = Relation::empty("R1", schema(["Z"]));
        assert!(d.add(dup).is_err());
    }

    #[test]
    fn tids_round_trip() {
        let db = db();
        let tid = db.tid_of("R1", &tuple(["a", "x2"])).unwrap();
        assert_eq!(tid.row, 1);
        assert_eq!(db.tuple(&tid), Some(&tuple(["a", "x2"])));
        assert_eq!(db.tid_of("R1", &tuple(["zz", "zz"])), None);
        assert_eq!(db.tuple(&Tid::new("R1", 99)), None);
    }

    #[test]
    fn all_tids_enumerates_everything() {
        let db = db();
        let tids: Vec<Tid> = db.all_tids().collect();
        assert_eq!(tids.len(), 3);
        assert!(tids.contains(&Tid::new("R2", 0)));
    }

    #[test]
    fn without_removes_only_named_tuples() {
        let db = db();
        let t = db.tid_of("R1", &tuple(["a", "x1"])).unwrap();
        let out = db.without(&BTreeSet::from([t]));
        assert_eq!(out.get("R1").unwrap().len(), 1);
        assert_eq!(out.get("R2").unwrap().len(), 1);
        assert!(!out.get("R1").unwrap().contains(&tuple(["a", "x1"])));
        // original untouched
        assert_eq!(db.tuple_count(), 3);
    }

    #[test]
    fn clones_share_relation_storage() {
        let db = db();
        let copy = db.clone();
        for (a, b) in db.relations().zip(copy.relations()) {
            assert!(std::ptr::eq(a.tuples(), b.tuples()), "{}", a.name());
        }
        // `without` copies only the relations it deletes from.
        let t = db.tid_of("R1", &tuple(["a", "x1"])).unwrap();
        let out = db.without(&BTreeSet::from([t]));
        assert!(!std::ptr::eq(
            db.get("R1").unwrap().tuples(),
            out.get("R1").unwrap().tuples()
        ));
        assert!(std::ptr::eq(
            db.get("R2").unwrap().tuples(),
            out.get("R2").unwrap().tuples()
        ));
    }

    #[test]
    fn without_empty_set_is_identity() {
        let db = db();
        assert_eq!(db.without(&BTreeSet::new()), db);
    }

    #[test]
    fn catalog_reflects_schemas() {
        let cat = db().catalog();
        assert_eq!(cat.get("R1"), Some(&schema(["A", "B"])));
    }

    #[test]
    fn tid_display() {
        assert_eq!(Tid::new("R1", 3).to_string(), "R1#3");
    }

    #[test]
    fn fixture_string_round_trips() {
        let db = db();
        let back = crate::parser::parse_database(&db.to_fixture_string()).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn fixture_string_quotes_hostile_values() {
        use crate::value::Value;
        let db = Database::from_relations(vec![Relation::new(
            "R",
            schema(["A", "B", "C"]),
            vec![Tuple::new(vec![
                Value::str("sp ace"),
                Value::str("it's"),
                Value::str("7"),
            ])],
        )
        .unwrap()])
        .unwrap();
        let back = crate::parser::parse_database(&db.to_fixture_string()).unwrap();
        assert_eq!(back, db);
        // The string "7" must stay a string, not re-lex as an integer.
        assert_eq!(
            back.tuple(&Tid::new("R", 0)).unwrap().values()[2],
            Value::str("7")
        );
    }
}
