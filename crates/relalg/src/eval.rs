//! Set-semantics evaluation of SPJRU queries.
//!
//! The evaluator materializes every intermediate result. That is a deliberate
//! choice: the paper's hardness results for annotation placement are in
//! *combined* complexity, where the blow-up happens exactly in these
//! intermediates, and `report_table3` measures that blow-up.

use crate::database::Database;
use crate::error::Result;
use crate::fingerprint::{Bucket, FpMap, LayoutMode};
use crate::name::Attr;
use crate::query::Query;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::typecheck::output_schema;
use std::collections::BTreeSet;

/// A materialized query result: an anonymous relation (schema + sorted tuple
/// set).
#[derive(Clone, PartialEq, Eq)]
pub struct ResultSet {
    /// Output schema.
    pub schema: Schema,
    /// Sorted, deduplicated output tuples.
    pub tuples: Vec<Tuple>,
}

impl ResultSet {
    fn from_set(schema: Schema, set: BTreeSet<Tuple>) -> ResultSet {
        ResultSet {
            schema,
            tuples: set.into_iter().collect(),
        }
    }

    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Whether `t` occurs in the result (binary search).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.binary_search(t).is_ok()
    }

    /// The output tuples as a `BTreeSet` (for set-algebraic comparisons).
    pub fn tuple_set(&self) -> BTreeSet<Tuple> {
        self.tuples.iter().cloned().collect()
    }

    /// Convert to a named relation (for display / further querying).
    pub fn into_relation(self, name: &str) -> Relation {
        Relation::new(name, self.schema, self.tuples).expect("result arity is consistent")
    }

    /// Render as an aligned table titled `name`, like the paper's figures.
    pub fn to_table_string(&self, name: &str) -> String {
        self.clone().into_relation(name).to_table_string()
    }
}

impl std::fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ResultSet({} tuples over {})", self.len(), self.schema)
    }
}

/// Evaluate `q` against `db`, producing a materialized result.
pub fn eval(q: &Query, db: &Database) -> Result<ResultSet> {
    let catalog = db.catalog();
    // Type-check up front so evaluation can't fail halfway through on a
    // schema error.
    output_schema(q, &catalog)?;
    eval_unchecked(q, db)
}

fn eval_unchecked(q: &Query, db: &Database) -> Result<ResultSet> {
    match q {
        Query::Scan(rel) => {
            let r = db.require(rel)?;
            Ok(ResultSet {
                schema: r.schema().clone(),
                tuples: r.tuples().to_vec(),
            })
        }
        Query::Select { input, pred } => {
            let input = eval_unchecked(input, db)?;
            let mut out = BTreeSet::new();
            for t in &input.tuples {
                if pred.eval(&input.schema, t)? {
                    out.insert(t.clone());
                }
            }
            Ok(ResultSet::from_set(input.schema, out))
        }
        Query::Project { input, attrs } => {
            let input = eval_unchecked(input, db)?;
            let schema = input.schema.project(attrs)?;
            let positions = input.schema.positions_of(attrs)?;
            let out: BTreeSet<Tuple> = input
                .tuples
                .iter()
                .map(|t| t.project_positions(&positions))
                .collect();
            Ok(ResultSet::from_set(schema, out))
        }
        Query::Join { left, right } => {
            let l = eval_unchecked(left, db)?;
            let r = eval_unchecked(right, db)?;
            Ok(hash_join(&l, &r))
        }
        Query::Union { left, right } => {
            let l = eval_unchecked(left, db)?;
            let r = eval_unchecked(right, db)?;
            // Align the right branch to the left branch's attribute order.
            let positions = r.schema.positions_of(l.schema.attrs())?;
            let mut out: BTreeSet<Tuple> = l.tuples.iter().cloned().collect();
            out.extend(r.tuples.iter().map(|t| t.project_positions(&positions)));
            Ok(ResultSet::from_set(l.schema, out))
        }
        Query::Rename { input, mapping } => {
            let input = eval_unchecked(input, db)?;
            let schema = input.schema.rename(mapping)?;
            Ok(ResultSet {
                schema,
                tuples: input.tuples,
            })
        }
    }
}

/// Natural hash join: build on the smaller input, probe with the larger.
pub(crate) fn hash_join(l: &ResultSet, r: &ResultSet) -> ResultSet {
    let shared: Vec<Attr> = l.schema.shared_with(&r.schema);
    let schema = l.schema.join_with(&r.schema);
    let l_keys: Vec<usize> = shared
        .iter()
        .map(|a| l.schema.index_of(a).expect("shared attr"))
        .collect();
    let r_keys: Vec<usize> = shared
        .iter()
        .map(|a| r.schema.index_of(a).expect("shared attr"))
        .collect();
    // Positions of the right tuple's non-shared attributes, in schema order.
    let r_extra: Vec<usize> = r
        .schema
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| !l.schema.contains(a))
        .map(|(i, _)| i)
        .collect();

    // Build the hash table on the right side, probe with the left, so output
    // construction (left ++ right-extras) stays simple. Fingerprinted keys:
    // no per-row key allocation, identity hash. Candidates sharing a
    // fingerprint are verified against the actual key values (an integer
    // compare per attribute under interning).
    let mode = LayoutMode::current();
    let mut table: FpMap<Bucket<&Tuple>> =
        FpMap::with_capacity_and_hasher(r.tuples.len(), Default::default());
    for t in &r.tuples {
        table
            .entry(mode.key_fp(t, &r_keys))
            .and_modify(|b| b.push(t))
            .or_insert(Bucket::One(t));
    }
    let mut out = BTreeSet::new();
    for lt in &l.tuples {
        if let Some(matches) = table.get(&mode.key_fp(lt, &l_keys)) {
            for rt in matches.as_slice() {
                let keys_match = l_keys
                    .iter()
                    .zip(&r_keys)
                    .all(|(&lk, &rk)| lt.get(lk) == rt.get(rk));
                if keys_match {
                    out.insert(lt.join_concat(rt, &r_extra));
                }
            }
        }
    }
    ResultSet::from_set(schema, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Pred;
    use crate::schema::schema;
    use crate::tuple::tuple;

    /// The running example of Section 2.1.1: users, groups and files.
    fn usergroup_db() -> Database {
        Database::from_relations(vec![
            Relation::new(
                "UserGroup",
                schema(["user", "group"]),
                vec![
                    tuple(["ann", "staff"]),
                    tuple(["bob", "staff"]),
                    tuple(["bob", "dev"]),
                ],
            )
            .unwrap(),
            Relation::new(
                "GroupFile",
                schema(["group", "file"]),
                vec![
                    tuple(["staff", "report.txt"]),
                    tuple(["dev", "main.rs"]),
                    tuple(["dev", "report.txt"]),
                ],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn scan_returns_relation() {
        let db = usergroup_db();
        let out = eval(&Query::scan("UserGroup"), &db).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema, schema(["user", "group"]));
    }

    #[test]
    fn select_filters() {
        let db = usergroup_db();
        let q = Query::scan("UserGroup").select(Pred::attr_eq_const("user", "bob"));
        let out = eval(&q, &db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple(["bob", "dev"])));
    }

    #[test]
    fn project_dedups() {
        let db = usergroup_db();
        let q = Query::scan("UserGroup").project(["group"]);
        let out = eval(&q, &db).unwrap();
        assert_eq!(out.len(), 2); // staff appears twice before dedup
    }

    #[test]
    fn natural_join_on_shared_attr() {
        let db = usergroup_db();
        let q = Query::scan("UserGroup").join(Query::scan("GroupFile"));
        let out = eval(&q, &db).unwrap();
        assert_eq!(out.schema, schema(["user", "group", "file"]));
        assert_eq!(out.len(), 4);
        assert!(out.contains(&tuple(["bob", "dev", "main.rs"])));
        assert!(!out.contains(&tuple(["ann", "dev", "main.rs"])));
    }

    #[test]
    fn paper_query_user_file() {
        let db = usergroup_db();
        let q = Query::scan("UserGroup")
            .join(Query::scan("GroupFile"))
            .project(["user", "file"]);
        let out = eval(&q, &db).unwrap();
        // (bob, report.txt) has two witnesses (via staff and via dev).
        assert_eq!(out.len(), 3);
        assert!(out.contains(&tuple(["bob", "report.txt"])));
        assert!(out.contains(&tuple(["ann", "report.txt"])));
        assert!(out.contains(&tuple(["bob", "main.rs"])));
    }

    #[test]
    fn join_with_disjoint_schemas_is_cross_product() {
        let db = Database::from_relations(vec![
            Relation::new("L", schema(["A"]), vec![tuple(["1"]), tuple(["2"])]).unwrap(),
            Relation::new("R", schema(["B"]), vec![tuple(["x"]), tuple(["y"])]).unwrap(),
        ])
        .unwrap();
        let out = eval(&Query::scan("L").join(Query::scan("R")), &db).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn self_join_is_identity_on_set_semantics() {
        let db = usergroup_db();
        let q = Query::scan("UserGroup").join(Query::scan("UserGroup"));
        let out = eval(&q, &db).unwrap();
        assert_eq!(
            out.tuple_set(),
            eval(&Query::scan("UserGroup"), &db).unwrap().tuple_set()
        );
    }

    #[test]
    fn union_aligns_attribute_order() {
        let db = Database::from_relations(vec![
            Relation::new("L", schema(["A", "B"]), vec![tuple(["1", "2"])]).unwrap(),
            Relation::new(
                "R",
                schema(["B", "A"]),
                vec![tuple(["2", "1"]), tuple(["9", "8"])],
            )
            .unwrap(),
        ])
        .unwrap();
        let out = eval(&Query::scan("L").union(Query::scan("R")), &db).unwrap();
        // (1,2) from L coincides with R's (B=2, A=1) after alignment.
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple(["1", "2"])));
        assert!(out.contains(&tuple(["8", "9"])));
    }

    #[test]
    fn rename_changes_schema_not_tuples() {
        let db = usergroup_db();
        let q = Query::scan("UserGroup").rename([("user", "member")]);
        let out = eval(&q, &db).unwrap();
        assert_eq!(out.schema, schema(["member", "group"]));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn rename_enables_union_across_relations() {
        let db = usergroup_db();
        // δ renames GroupFile(group,file) to (user,group)-compatible shape.
        let q = Query::scan("UserGroup")
            .union(Query::scan("GroupFile").rename([("group", "user"), ("file", "group")]));
        let out = eval(&q, &db).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn eval_type_errors_surface() {
        let db = usergroup_db();
        let q = Query::scan("Nope");
        assert!(eval(&q, &db).is_err());
        let q = Query::scan("UserGroup").project(["nope"]);
        assert!(eval(&q, &db).is_err());
    }

    #[test]
    fn monotonicity_on_example() {
        // S' ⊆ S ⇒ Q(S') ⊆ Q(S) — spot check; the property test in
        // tests/prop_eval.rs covers random instances.
        let db = usergroup_db();
        let q = Query::scan("UserGroup")
            .join(Query::scan("GroupFile"))
            .project(["user", "file"]);
        let full = eval(&q, &db).unwrap().tuple_set();
        let tid = db.tid_of("UserGroup", &tuple(["bob", "staff"])).unwrap();
        let smaller = db.without(&BTreeSet::from([tid]));
        let sub = eval(&q, &smaller).unwrap().tuple_set();
        assert!(sub.is_subset(&full));
    }

    #[test]
    fn empty_inputs() {
        let db = Database::from_relations(vec![
            Relation::empty("E", schema(["A"])),
            Relation::new("R", schema(["A"]), vec![tuple(["1"])]).unwrap(),
        ])
        .unwrap();
        let out = eval(&Query::scan("E").join(Query::scan("R")), &db).unwrap();
        assert!(out.is_empty());
        let out = eval(&Query::scan("E").union(Query::scan("R")), &db).unwrap();
        assert_eq!(out.len(), 1);
    }
}
