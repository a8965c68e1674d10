//! # dap-relalg — the relational substrate
//!
//! A from-scratch, set-semantics relational algebra engine for the **monotone
//! SPJRU fragment** (select, project, natural join, rename, union) — exactly
//! the query language studied by Buneman, Khanna and Tan in *"On Propagation
//! of Deletions and Annotations Through Views"* (PODS 2002).
//!
//! The crate provides:
//!
//! * values, tuples, schemas, relations and databases with **stable tuple
//!   identities** ([`Tid`]) — the unit of source deletion;
//! * the [`Query`] AST with builders, a text [`parser`] and a round-tripping
//!   pretty printer;
//! * a type checker ([`output_schema`]) and a materializing evaluator
//!   ([`eval()`](eval::eval));
//! * the generic **annotated evaluator** ([`engine`]): one operator-tree
//!   build parameterized over an [`Annotation`] semiring-style trait — the
//!   single engine behind plain evaluation, lineage, why/where-provenance
//!   and Boolean lineage expressions (instances live in `dap-provenance`);
//!   the independent tree walk [`eval()`](eval::eval) is its reference;
//! * the **maintained-view engine** ([`registry`], with the per-operator
//!   kernels in [`plan`]): standing queries materialized as one
//!   hash-consed operator DAG that keeps per-operator state — α-equivalent
//!   subtrees resolve to a single shared node, and
//!   [`PlanRegistry::delete_sources`] pushes each deletion through the
//!   DAG once in `O(affected)`, fanning per-query [`ViewDelta`]s out to
//!   every registered query. A one-query registry is the materialized
//!   pipeline of a single `(Q, S)`, and [`eval_annotated`] is one consumed
//!   on the spot;
//! * the **persistent parallel runtime** ([`par`]) — *sharded builds,
//!   sequential turns*: a dependency-free [`ParPool`] (one shard per
//!   hardware thread) whose deterministic sharding helpers split the
//!   one-time operator builds here and `dap-core`'s context skeleton over
//!   a process-global set of parked worker threads once an input crosses
//!   the build grain, with one thread degrading to the exact sequential
//!   code paths. Every per-turn path — the registry's delta push, each
//!   solve — runs on the calling thread;
//! * the **hot-path data layout** ([`mod@intern`], [`fingerprint`]): globally
//!   interned string values ([`Sym`] — id-compare equality, one allocation
//!   per distinct constant) and fixed-width `u64` join-key fingerprints
//!   with a collision-checked fallback (which [`force_layout`] can force
//!   onto every key, for tests);
//! * query classification ([`OpFootprint`], [`detect_chain_join`]) used by
//!   the paper's dichotomy theorems;
//! * the **union normal form** rewriter ([`normalize()`](normalize::normalize), Theorem 3.1 of the
//!   paper), which underpins the polynomial-time solvers.
//!
//! ```
//! use dap_relalg::{parse_database, parse_query, eval};
//!
//! let db = parse_database(
//!     "relation UserGroup(user, grp) { (ann, staff), (bob, dev) }
//!      relation GroupFile(grp, file) { (staff, 'r.txt'), (dev, 'm.rs') }",
//! ).unwrap();
//! let q = parse_query(
//!     "project(join(scan UserGroup, scan GroupFile), [user, file])",
//! ).unwrap();
//! let view = eval(&q, &db).unwrap();
//! assert_eq!(view.len(), 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod classify;
pub mod database;
pub mod engine;
pub mod error;
pub mod eval;
pub mod fd;
pub mod fingerprint;
pub mod intern;
pub mod name;
pub mod normalize;
// The parallel runtime is the one module allowed `unsafe`: its persistent
// workers borrow the dispatching caller's stack through an erased pointer
// (soundness argument in the module docs).
#[allow(unsafe_code)]
pub mod par;
pub mod parser;
pub mod plan;
pub mod predicate;
pub mod query;
pub mod registry;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod typecheck;
pub mod value;

pub use classify::{detect_chain_join, ChainJoin, OpFootprint};
pub use database::{Catalog, Database, Tid};
pub use engine::{eval_annotated, Annotated, Annotation, JoinLayout, Unit};
pub use error::{RelalgError, Result};
pub use eval::{eval, ResultSet};
pub use fd::{closure, is_superkey, projection_determines_join, Fd, FdCatalog};
pub use fingerprint::{force_layout, LayoutMode};
pub use intern::{intern, interned_count, Sym};
pub use name::{Attr, RelName};
pub use normalize::{is_normal_form, normalize, Branch, NormalForm, RenamedScan};
pub use par::ParPool;
pub use parser::{parse_database, parse_pred, parse_query};
pub use plan::{ViewDelta, BUILD_GRAIN};
pub use predicate::{CmpOp, Operand, Pred};
pub use query::Query;
pub use registry::{PlanRegistry, QueryId, SubscriberId};
pub use relation::Relation;
pub use schema::{schema, Schema};
pub use tuple::{tuple, Tuple};
pub use typecheck::{output_schema, reject_internal_attrs};
pub use value::Value;
